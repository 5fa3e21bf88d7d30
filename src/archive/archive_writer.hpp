// The archive store's write path (DESIGN.md §10): a SegmentWriter appends
// framed MRT records to rotated on-disk segments. Records accumulate in an
// in-memory buffer on the caller's thread (the event loop); disk work —
// appending buffered bytes to the active `current.part`, fsync, sealing a
// segment on the rotation boundary, rewriting `index.json` — runs as jobs
// on a parallel::ThreadPool so the loop never blocks on storage
// (mirroring the async filter-refresh pattern of DESIGN.md §9). Jobs for
// one writer are strictly serialized (a serial executor over the pool), so
// segment bytes land in append order no matter how many pool workers
// exist. Without a pool every job runs inline: deterministic for tests.
//
// Locking. The caller-side calls (store, tick, flush, rotate_now) take no
// lock that a job holds across a syscall: failed() is an atomic, the job
// queue has its own mutex held only to push or pop, and the manifest
// mirror's mutex is held only for in-memory updates. A job's write, fsync,
// bloom build, zstd pass and manifest rewrite run with no lock held, so a
// shard never waits behind an fsync or a seal while the I/O worker keeps
// up. When it does not, the queue's byte cap (kMaxPendingChunks flushes)
// makes the posting call wait for room: a disk slower than ingest throttles
// the callers instead of growing the queue without bound.
//
// Rotation happens on wall-clock boundaries: a segment covers
// [k*rotate_secs, (k+1)*rotate_secs) — the 15-minute windows of
// RIS/RouteViews-style archives by default. RIB snapshots (TABLE_DUMP_V2
// records, fed by the daemons' periodic rib dumps) interleave with the
// updates, so any window is reconstructible from the archive alone.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "archive/retention.hpp"
#include "archive/segment.hpp"
#include "metrics/metrics.hpp"
#include "mrt/mrt.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::archive {

struct SegmentWriterConfig {
  std::string directory;
  /// Wall-clock rotation boundary, seconds (15 min, the RIS/RV window).
  Timestamp rotate_secs = 900;
  /// Buffered bytes that trigger an asynchronous append to the active
  /// segment file (batches small records into few write syscalls).
  std::size_t flush_bytes = 64 * 1024;
  /// zstd-compress segment payloads at seal time (--archive-compress).
  /// The active `current.part` stays raw either way, so recovery is
  /// unchanged; a build without zstd degrades to raw sealing.
  bool compress = false;
  /// I/O executor; nullptr runs every job inline on the caller's thread.
  /// Its workers must not call into this writer (a waiting post would
  /// then block the worker that makes room).
  par::ThreadPool* pool = nullptr;
  /// Registry hosting the gill_archive_* instruments; nullptr uses
  /// metrics::default_registry().
  metrics::Registry* registry = nullptr;
};

class SegmentWriter : public mrt::Sink {
 public:
  /// Bytes the I/O queue may hold, in flush_bytes chunks (1 MiB at the
  /// default): room for bursts such as a seal's zstd pass, and a fixed
  /// memory bound when the disk is slower than ingest. A flush or seal
  /// that would queue more waits until jobs finish.
  static constexpr std::size_t kMaxPendingChunks = 16;

  explicit SegmentWriter(SegmentWriterConfig config);
  ~SegmentWriter() override;
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Creates the store directory, seals any crash artifact from a previous
  /// process (recovery scan + truncate, see segment.hpp) and loads the
  /// manifest. Must be called (and return true) before any append.
  bool open();

  // --- mrt::Sink ------------------------------------------------------------
  void store(const bgp::Update& update) override;
  void store_rib_entry(const bgp::Update& entry) override;

  /// Drives rotation: seals the active segment once `now` crosses its
  /// window boundary. Call periodically (the collector's tick timer).
  void tick(Timestamp now);

  /// Schedules the buffered bytes for an append+fsync to the active file.
  void flush();

  /// Seals the active segment regardless of the boundary (shutdown).
  void rotate_now();

  /// Blocks until every scheduled I/O job ran (tests, shutdown).
  void wait_idle();

  /// rotate_now() + wait_idle(): after close() the store on disk is
  /// sealed, indexed and fsynced. Called by the destructor.
  void close();

  /// Runs one retention/GC pass as a serialized writer job: deletes aged
  /// and over-budget sealed windows (oldest first), skipping any segment
  /// pinned by a live cursor, with the crash-safe manifest-first ordering
  /// of retention.hpp. `on_deleted` (may be empty) is invoked once per
  /// deleted file name — the daemon uses it to invalidate the segment
  /// cache. No-op when the policy is disabled.
  void run_retention(const RetentionPolicy& policy, const SegmentPins* pins,
                     Timestamp now,
                     std::function<void(const std::string&)> on_deleted = {});

  /// Sealed segments, oldest first (a snapshot; safe from any thread).
  std::vector<SegmentMeta> manifest() const;

  /// Bumped on every manifest change (seal, GC). The daemon refreshes its
  /// shared QueryEngine only when this moves — satellite (a)'s fix for the
  /// reload-the-manifest-per-request pattern.
  std::uint64_t manifest_generation() const;

  std::uint64_t segments_sealed() const;
  std::uint64_t records_appended() const noexcept { return records_appended_; }
  /// True once an I/O failure (or the torn-write fault) killed the writer.
  /// A full disk (ENOSPC) does NOT kill the writer: the chunk is dropped,
  /// counted and logged, and appends resume if space comes back.
  bool failed() const noexcept {
    return dead_.load(std::memory_order_acquire);
  }

  /// Appends dropped because the disk was full (see failed()).
  std::uint64_t enospc_events() const noexcept {
    return enospc_events_.load(std::memory_order_relaxed);
  }

  /// Test/fault hook — simulates a crash mid-write: the next scheduled
  /// append writes only the first `bytes` bytes of its chunk to the active
  /// file, skips the fsync, and permanently disables the writer (every
  /// later job is a no-op), exactly as if the process died inside write().
  void fault_torn_write(std::size_t bytes);

  /// Test/fault hook — the next scheduled append fails with ENOSPC: its
  /// chunk is dropped and counted but the writer stays alive (degradation,
  /// not failure — collection continues when the operator frees space).
  void fault_enospc();

 private:
  struct Instruments {
    explicit Instruments(metrics::Registry& registry);
    metrics::Counter& segments_written;
    metrics::Counter& bytes_written;
    metrics::Counter& records_appended;
    metrics::Counter& recovered_segments;
    metrics::Counter& truncated_bytes;
    metrics::Counter& enospc_events;
    metrics::Counter& enospc_dropped_bytes;
    metrics::Counter& compressed_segments;
    metrics::Counter& compression_saved_bytes;
    metrics::Counter& gc_deleted_segments;
    metrics::Counter& gc_deleted_bytes;
    metrics::Counter& gc_skipped_pinned;
    metrics::Histogram& rotate_us;
    metrics::Histogram& fsync_us;
    metrics::Histogram& bloom_finalize_us;
  };

  void append_record(const bgp::Update& update, bool rib_entry);
  /// Schedules `job`, which writes `bytes` payload bytes, on the serial
  /// executor (inline without a pool); waits while the queue is full.
  void post(std::function<void()> job, std::size_t bytes);
  void run_jobs();
  /// Job bodies (serial-executor thread).
  void do_append(std::vector<std::uint8_t> bytes);
  void do_seal(std::vector<std::uint8_t> tail, SegmentMeta meta);
  /// Opens current.part for appending if no job has yet; false kills the
  /// writer.
  bool ensure_active_fd();
  void count_enospc(std::size_t dropped_bytes);

  std::string active_path() const;

  SegmentWriterConfig config_;
  Instruments instruments_;

  // Loop-thread state (no lock needed: append/tick/flush are loop-only).
  mrt::Writer buffer_;           // records not yet scheduled for disk
  std::uint64_t scheduled_bytes_ = 0;  // active-segment bytes already posted
  SegmentMeta active_;           // statistics of the active segment
  Timestamp window_start_ = 0;   // active window [start, start+rotate)
  bool window_open_ = false;
  std::uint64_t records_appended_ = 0;
  std::uint64_t next_seq_ = 1;

  // Serial executor over the pool. `queue_mutex_` guards the queue only
  // and is never held while a job runs. `pending_bytes_` counts the bytes
  // of queued and running jobs; `room_` is signalled as each job ends.
  struct Job {
    std::function<void()> run;
    std::size_t bytes = 0;
  };
  std::mutex queue_mutex_;
  std::condition_variable idle_;
  std::condition_variable room_;
  std::deque<Job> jobs_;
  std::size_t pending_bytes_ = 0;
  bool job_running_ = false;

  // Torn-write fault tripped or I/O failure: read on every store.
  std::atomic<bool> dead_{false};
  std::atomic<std::uint64_t> enospc_events_{0};

  // Job-thread state, no lock: jobs never overlap, and the queue mutex
  // orders each job after the one before it.
  int active_fd_ = -1;  // open fd of current.part

  // `state_mutex_` guards the manifest mirror and the fault hooks. It is
  // held only for in-memory reads and updates, never across I/O. Only jobs
  // (and open(), before any job) change sealed_, so a job reads it unlocked.
  mutable std::mutex state_mutex_;
  std::vector<SegmentMeta> sealed_;  // manifest mirror
  std::uint64_t sealed_count_ = 0;
  std::uint64_t manifest_generation_ = 0;
  std::size_t torn_write_bytes_ = SIZE_MAX;  // SIZE_MAX = fault unarmed
  bool fault_armed_ = false;
  bool enospc_fault_armed_ = false;
};

}  // namespace gill::archive
