#include "epoch/local_epoch_manager.hpp"

#include "epoch/domain.hpp"
#include "util/check.hpp"

namespace pgasnb {

// ---------------------------------------------------------------------------
// LocalGuard
// ---------------------------------------------------------------------------

LocalGuard::LocalGuard(LocalDomain* domain, bool pin_now)
    : domain_(domain), token_(domain->tokens_.acquire()) {
  if (pin_now) pin();
}

LocalGuard& LocalGuard::operator=(LocalGuard&& other) noexcept {
  release();
  domain_ = other.domain_;
  token_ = other.token_;
  other.token_ = nullptr;
  other.domain_ = nullptr;
  return *this;
}

void LocalGuard::pin() {
  PGASNB_CHECK_MSG(token_ != nullptr, "pin() on an invalid guard");
  domain_->pin(token_);
}

void LocalGuard::unpin() noexcept {
  // No-op on an invalid (released/moved-from) guard: it is already
  // quiescent, and DistGuard behaves the same way.
  if (token_ == nullptr) return;
  token_->local_epoch.store(kEpochQuiescent, std::memory_order_seq_cst);
}

void LocalGuard::retireRaw(void* obj, ObjectDeleter deleter) {
  PGASNB_CHECK_MSG(token_ != nullptr, "retire() on an invalid guard");
  domain_->deferDelete(token_, obj, deleter);
}

bool LocalGuard::tryReclaim() {
  // Invalid guard: nothing to reclaim through (mirrors unpin's hardening).
  if (domain_ == nullptr) return false;
  return domain_->tryReclaim();
}

void LocalGuard::release() {
  if (token_ == nullptr) return;
  unpin();
  domain_->tokens_.release(token_);
  token_ = nullptr;
  domain_ = nullptr;
}

// ---------------------------------------------------------------------------
// LocalDomain
// ---------------------------------------------------------------------------

void LocalDomain::pin(Token* token) noexcept {
  if (token->pinned()) return;
  // Re-validating pin: identical hardening to the distributed manager.
  std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
  token->local_epoch.store(e, std::memory_order_seq_cst);
  std::uint64_t current;
  while ((current = epoch_.load(std::memory_order_seq_cst)) != e) {
    e = current;
    token->local_epoch.store(e, std::memory_order_seq_cst);
  }
}

void LocalDomain::deferDelete(Token* token, void* obj, ObjectDeleter deleter) {
  const std::uint64_t e = token->local_epoch.load(std::memory_order_seq_cst);
  PGASNB_CHECK_MSG(e != kEpochQuiescent,
                   "deferDelete requires a pinned token");
  LimboNode* node = node_pool_.acquire(obj, deleter);
  limbo_[limboIndexFor(e)].push(node);
  counters_.noteDeferred(1);
}

void LocalDomain::reclaimList(std::uint32_t index) {
  LimboNode* const first = limbo_[index].popAll();
  std::uint64_t count = 0;
  LimboNode* last = first;
  for (LimboNode* n = first; n != nullptr; n = LimboList::next(n)) {
    n->deleter(n->obj);
    last = n;
    ++count;
  }
  node_pool_.releaseChain(first, last);
  counters_.reclaimed.fetch_add(count, std::memory_order_relaxed);
}

bool LocalDomain::tryReclaim() {
  // Single-flag FCFS election (no global epoch to contend for).
  if (is_setting_epoch_.exchange(1, std::memory_order_seq_cst) != 0) {
    counters_.elections_lost_local.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const std::uint64_t this_epoch = epoch_.load(std::memory_order_seq_cst);
  bool safe = true;
  for (Token* t = tokens_.allocatedHead(); t != nullptr;
       t = t->next_allocated) {
    const std::uint64_t e = t->local_epoch.load(std::memory_order_seq_cst);
    if (e != kEpochQuiescent && e != this_epoch) {
      safe = false;
      break;
    }
  }

  if (safe) {
    const std::uint64_t new_epoch = nextEpoch(this_epoch);
    epoch_.store(new_epoch, std::memory_order_seq_cst);
    counters_.advances.fetch_add(1, std::memory_order_relaxed);
    reclaimList(reclaimIndexFor(new_epoch));
  } else {
    counters_.scans_unsafe.fetch_add(1, std::memory_order_relaxed);
  }

  is_setting_epoch_.store(0, std::memory_order_seq_cst);
  return safe;
}

void LocalDomain::clear() {
  for (std::uint32_t index = 0; index < kNumEpochs; ++index) {
    reclaimList(index);
  }
}

}  // namespace pgasnb
