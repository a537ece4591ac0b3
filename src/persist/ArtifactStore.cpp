//===- persist/ArtifactStore.cpp ------------------------------------------===//

#include "persist/ArtifactStore.h"

#include "cache/Fingerprint.h"
#include "persist/FrameFile.h"
#include "persist/Serialize.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <vector>

namespace fs = std::filesystem;

using namespace prdnn;
using namespace prdnn::persist;

namespace {

constexpr const char *kEntrySuffix = ".art";

bool isEntryFile(const fs::path &Path) {
  const std::string Name = Path.filename().string();
  return Name.size() > 4 &&
         Name.compare(Name.size() - 4, 4, kEntrySuffix) == 0;
}

/// Every entry's payload starts with its full key (see storeSync), so a
/// valid frame found under another key's path is rejected, not loaded.
bool readKeyMatches(ByteReader &R, const CacheKey &Key) {
  std::uint8_t Kind = 0;
  Digest128 Digest;
  return R.u8(Kind) && R.u64(Digest.Hi) && R.u64(Digest.Lo) &&
         Kind == blobKindOf(Key.Kind) && Digest == Key.Digest;
}

} // namespace

ArtifactStore::ArtifactStore(StoreOptions Options)
    : Dir(std::move(Options.Directory)), Budget(Options.BudgetBytes),
      MaxQueuedWrites(std::max(1, Options.MaxQueuedWrites)) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  scanExisting();
  Writer = std::thread([this] { writerMain(); });
}

ArtifactStore::~ArtifactStore() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stopping = true;
  }
  QueueCv.notify_all();
  Writer.join();
}

std::string ArtifactStore::entryPath(const CacheKey &Key) const {
  const std::string Hex = toHex(Key.Digest);
  return (fs::path(Dir) / Hex.substr(0, 2) / Hex.substr(2, 2) /
          (toString(Key.Kind) + ("-" + Hex) + kEntrySuffix))
      .string();
}

std::shared_ptr<const CacheArtifact>
ArtifactStore::load(const CacheKey &Key) {
  const std::string Path = entryPath(Key);
  FrameFile File = readFrameFile(Path, blobKindOf(Key.Kind));
  if (!File.Found) {
    MissCount.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  auto CorruptSkip = [&]() -> std::shared_ptr<const CacheArtifact> {
    // Torn write from a crashed process, bit rot, a foreign format, or
    // a frame under another key's path: drop the entry so the next
    // writer republishes good bytes, and let the caller recompute -
    // corruption can cost time, never correctness.
    CorruptSkipCount.fetch_add(1, std::memory_order_relaxed);
    MissCount.fetch_add(1, std::memory_order_relaxed);
    std::error_code Ec;
    std::uint64_t Size = File.Bytes.size();
    if (fs::remove(Path, Ec) && !Ec) {
      // Saturating decrements: counters are approximate across
      // processes.
      std::uint64_t Held = BytesHeld.load(std::memory_order_relaxed);
      BytesHeld.store(Held >= Size ? Held - Size : 0,
                      std::memory_order_relaxed);
      std::uint64_t N = EntryCount.load(std::memory_order_relaxed);
      EntryCount.store(N > 0 ? N - 1 : 0, std::memory_order_relaxed);
    }
    return nullptr;
  };

  ByteReader R = File.payload();
  std::shared_ptr<const CacheArtifact> Artifact =
      File.Error == CodecError::None && readKeyMatches(R, Key)
          ? deserializeArtifact(Key.Kind, R)
          : nullptr;
  if (!Artifact)
    return CorruptSkip();

  HitCount.fetch_add(1, std::memory_order_relaxed);
  // Refresh recency for the LRU-by-mtime GC (best effort).
  std::error_code Ec;
  fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
  return Artifact;
}

void ArtifactStore::storeAsync(const CacheKey &Key,
                               std::shared_ptr<const CacheArtifact> Value) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (!Stopping &&
        static_cast<int>(Queue.size()) < MaxQueuedWrites) {
      Queue.push_back(QueuedWrite{Key, std::move(Value)});
    } else {
      WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  QueueCv.notify_one();
}

void ArtifactStore::storeSync(const CacheKey &Key,
                              const CacheArtifact &Value) {
  ByteWriter W;
  W.u8(blobKindOf(Key.Kind));
  W.u64(Key.Digest.Hi);
  W.u64(Key.Digest.Lo);
  serializeArtifact(Value, Key.Kind, W);
  std::vector<std::uint8_t> Blob = frame(blobKindOf(Key.Kind), W.buffer());
  if (Blob.size() > Budget) {
    // Larger than the whole store: writing it would only evict
    // everything else before being evicted itself.
    WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const std::string Path = entryPath(Key);
  const PublishResult Result = publishFile(Path, Blob);
  if (Result == PublishResult::Exists) {
    // Published already - by an earlier job, a concurrent writer, or
    // another process on the shared store. A republish still signals
    // the entry is hot, so refresh its mtime (best effort) the same
    // way load() does: otherwise an artifact that is recomputed and
    // re-stored every run but never read back would keep a stale
    // mtime and be the LRU-by-mtime GC's first victim.
    std::error_code Ec;
    fs::last_write_time(Path, fs::file_time_type::clock::now(), Ec);
  }
  if (Result != PublishResult::Published) {
    WriteSkipCount.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  WriteCount.fetch_add(1, std::memory_order_relaxed);
  EntryCount.fetch_add(1, std::memory_order_relaxed);
  if (BytesHeld.fetch_add(Blob.size(), std::memory_order_relaxed) +
          Blob.size() >
      Budget)
    collectGarbage();
}

void ArtifactStore::flush() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  DrainCv.wait(Lock, [&] { return Queue.empty() && !WriterBusy; });
}

void ArtifactStore::writerMain() {
  std::unique_lock<std::mutex> Lock(QueueMutex);
  while (true) {
    QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty())
      return; // Stopping and drained (the destructor's flush contract)
    QueuedWrite Write = std::move(Queue.front());
    Queue.pop_front();
    WriterBusy = true;
    Lock.unlock();

    storeSync(Write.Key, *Write.Value);
    Write.Value.reset();

    Lock.lock();
    WriterBusy = false;
    if (Queue.empty())
      DrainCv.notify_all();
  }
}

void ArtifactStore::scanExisting() { collectGarbage(); }

void ArtifactStore::collectGarbage() {
  std::lock_guard<std::mutex> Lock(GcMutex);

  struct EntryInfo {
    fs::path Path;
    std::uint64_t Size;
    fs::file_time_type Mtime;
  };
  std::vector<EntryInfo> Entries;
  std::uint64_t TotalBytes = 0;
  std::error_code Ec;
  const auto Now = fs::file_time_type::clock::now();

  for (fs::recursive_directory_iterator
           It(Dir, fs::directory_options::skip_permission_denied, Ec),
       End;
       !Ec && It != End; It.increment(Ec)) {
    if (!It->is_regular_file(Ec))
      continue;
    const fs::path &Path = It->path();
    std::uint64_t Size = It->file_size(Ec);
    if (Ec) {
      Ec.clear();
      continue;
    }
    fs::file_time_type Mtime = It->last_write_time(Ec);
    if (Ec) {
      Ec.clear();
      continue;
    }
    if (isTempFileName(Path.filename().string())) {
      // A temp file older than a minute is debris from a crashed or
      // killed writer (live writers rename within milliseconds).
      if (Now - Mtime > std::chrono::minutes(1))
        fs::remove(Path, Ec);
      continue;
    }
    if (!isEntryFile(Path))
      continue;
    TotalBytes += Size;
    Entries.push_back(EntryInfo{Path, Size, Mtime});
  }

  if (TotalBytes > Budget) {
    std::sort(Entries.begin(), Entries.end(),
              [](const EntryInfo &A, const EntryInfo &B) {
                return A.Mtime < B.Mtime;
              });
    for (const EntryInfo &Victim : Entries) {
      if (TotalBytes <= Budget)
        break;
      std::error_code RemoveEc;
      if (fs::remove(Victim.Path, RemoveEc) && !RemoveEc) {
        TotalBytes -= Victim.Size;
        EvictionCount.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // The scan is authoritative: refresh the approximate counters.
  std::uint64_t Count = 0;
  std::uint64_t Held = 0;
  for (const EntryInfo &E : Entries) {
    std::error_code StatEc;
    if (fs::exists(E.Path, StatEc) && !StatEc) {
      ++Count;
      Held += E.Size;
    }
  }
  BytesHeld.store(Held, std::memory_order_relaxed);
  EntryCount.store(Count, std::memory_order_relaxed);
}

StoreStats ArtifactStore::stats() const {
  StoreStats Stats;
  Stats.Hits = HitCount.load(std::memory_order_relaxed);
  Stats.Misses = MissCount.load(std::memory_order_relaxed);
  Stats.Writes = WriteCount.load(std::memory_order_relaxed);
  Stats.WriteSkips = WriteSkipCount.load(std::memory_order_relaxed);
  Stats.Evictions = EvictionCount.load(std::memory_order_relaxed);
  Stats.CorruptSkips = CorruptSkipCount.load(std::memory_order_relaxed);
  Stats.BytesHeld = BytesHeld.load(std::memory_order_relaxed);
  Stats.Entries = EntryCount.load(std::memory_order_relaxed);
  Stats.BudgetBytes = Budget;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Stats.PendingWrites = Queue.size() + (WriterBusy ? 1 : 0);
  }
  return Stats;
}

void ArtifactStore::resetStats() {
  HitCount.store(0, std::memory_order_relaxed);
  MissCount.store(0, std::memory_order_relaxed);
  WriteCount.store(0, std::memory_order_relaxed);
  WriteSkipCount.store(0, std::memory_order_relaxed);
  EvictionCount.store(0, std::memory_order_relaxed);
  CorruptSkipCount.store(0, std::memory_order_relaxed);
}
