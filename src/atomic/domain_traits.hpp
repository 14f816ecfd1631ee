// domain_traits: maps a reclaim domain to its atomic building blocks.
//
// The paper pairs each reclamation flavour with an atomic flavour: the
// distributed epoch manager (DistDomain) with AtomicObject (compressed wide
// pointers, network atomics) and the local one (LocalDomain) with
// LocalAtomicObject (plain processor atomics, "opting out" of the
// network). This shim encodes that
// pairing once, so a Domain-generic data structure picks the right head
// word type from its Domain parameter alone.
#pragma once

#include <type_traits>

#include "atomic/atomic_object.hpp"
#include "atomic/local_atomic_object.hpp"

namespace pgasnb {

template <typename Domain>
struct domain_traits {
  /// True when pointers may cross locales (PGAS build).
  static constexpr bool distributed = Domain::kDistributed;

  /// The atomic pointer-to-T word appropriate for this domain.
  template <typename T, bool WithAba = false>
  using atomic_object =
      std::conditional_t<distributed, AtomicObject<T, WithAba>,
                         LocalAtomicObject<T, WithAba>>;
};

}  // namespace pgasnb
