// Process-wide value interning for the small records that millions of
// network objects share behind one pointer (noc::ChannelSpec,
// nodes::NodeCharacteristics, nodes::FaninSpec).
#pragma once

#include <deque>
#include <mutex>

namespace specnoc::util {

/// Returns the one stored copy equal to `value`, adding it on first use.
/// The reference stays valid for the life of the process (entries are
/// never freed or changed), equal values always yield the same address,
/// and calls from any thread are safe. T needs operator==.
///
/// A deque gives stable addresses across growth, and a linear scan is
/// fine: a table holds one entry per distinct value ever seen (a few dozen
/// at most). Each thread first checks the entry it got last, without the
/// lock, because builders intern runs of equal values (one per channel of
/// a tree level).
template <typename T>
const T& intern(const T& value) {
  thread_local const T* last = nullptr;
  if (last != nullptr && *last == value) return *last;
  static std::mutex mutex;
  static std::deque<T> interned;
  const std::lock_guard<std::mutex> lock(mutex);
  for (const T& entry : interned) {
    if (entry == value) return *(last = &entry);
  }
  interned.push_back(value);
  return *(last = &interned.back());
}

}  // namespace specnoc::util
