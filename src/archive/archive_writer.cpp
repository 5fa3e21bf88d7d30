#include "archive/archive_writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <utility>

namespace gill::archive {

namespace {

namespace fs = std::filesystem;

metrics::Registry& resolve(metrics::Registry* registry) {
  return registry != nullptr ? *registry : metrics::default_registry();
}

Timestamp align_down(Timestamp time, Timestamp step) {
  return step > 0 ? time - time % step : time;
}

}  // namespace

SegmentWriter::Instruments::Instruments(metrics::Registry& registry)
    : segments_written(registry.counter(
          "gill_archive_segments_written_total",
          "Segments sealed, renamed and indexed on disk")),
      bytes_written(registry.counter("gill_archive_bytes_written_total",
                                     "Payload bytes appended to segments")),
      records_appended(registry.counter(
          "gill_archive_records_appended_total",
          "MRT records (updates + RIB entries) accepted by the writer")),
      recovered_segments(registry.counter(
          "gill_archive_recovered_segments_total",
          "Crash artifacts sealed into segments by the recovery scan")),
      truncated_bytes(registry.counter(
          "gill_archive_truncated_bytes_total",
          "Torn tail bytes discarded by the recovery scan")),
      enospc_events(registry.counter(
          "gill_archive_enospc_events_total",
          "Appends dropped because the disk was full (writer stays alive)")),
      enospc_dropped_bytes(registry.counter(
          "gill_archive_enospc_dropped_bytes_total",
          "Payload bytes dropped by ENOSPC degradation")),
      compressed_segments(registry.counter(
          "gill_archive_compressed_segments_total",
          "Segments sealed with a zstd-compressed payload")),
      compression_saved_bytes(registry.counter(
          "gill_archive_compression_saved_bytes_total",
          "raw - compressed payload bytes across compressed seals")),
      gc_deleted_segments(registry.counter(
          "gill_archive_gc_deleted_segments_total",
          "Sealed windows deleted by retention/GC")),
      gc_deleted_bytes(registry.counter(
          "gill_archive_gc_deleted_bytes_total",
          "On-disk payload bytes reclaimed by retention/GC")),
      gc_skipped_pinned(registry.counter(
          "gill_archive_gc_skipped_pinned_total",
          "GC victims spared because a live cursor pinned them")),
      rotate_us(registry.histogram(
          "gill_archive_rotate_us",
          "Microseconds to seal a segment (tail write, footer, fsync, "
          "rename, manifest rewrite)")),
      fsync_us(registry.histogram("gill_archive_fsync_us",
                                  "Microseconds per fsync of the active "
                                  "segment file")),
      bloom_finalize_us(registry.histogram(
          "gill_archive_bloom_finalize_us",
          "Microseconds to build a sealing segment's prefix bloom from its "
          "record prefixes (on the I/O worker)")) {}

SegmentWriter::SegmentWriter(SegmentWriterConfig config)
    : config_(std::move(config)), instruments_(resolve(config_.registry)) {}

SegmentWriter::~SegmentWriter() { close(); }

std::string SegmentWriter::active_path() const {
  return (fs::path(config_.directory) / kActiveSegmentName).string();
}

bool SegmentWriter::open() {
  std::error_code ec;
  fs::create_directories(config_.directory, ec);
  const auto recovered = recover_store(config_.directory);
  if (!recovered) return false;
  instruments_.recovered_segments.inc(recovered->recovered_segments);
  instruments_.truncated_bytes.inc(recovered->truncated_bytes);
  auto manifest = load_manifest(config_.directory);
  next_seq_ = manifest.size() + 1;
  std::lock_guard lock(state_mutex_);
  sealed_ = std::move(manifest);
  sealed_count_ = sealed_.size();
  return true;
}

void SegmentWriter::store(const bgp::Update& update) {
  append_record(update, /*rib_entry=*/false);
}

void SegmentWriter::store_rib_entry(const bgp::Update& entry) {
  append_record(entry, /*rib_entry=*/true);
}

void SegmentWriter::append_record(const bgp::Update& update, bool rib_entry) {
  if (failed()) return;
  // A record past the window boundary seals the old window first, so a
  // segment's updates never spill past its wall-clock range.
  if (window_open_ &&
      update.time >= window_start_ + config_.rotate_secs) {
    rotate_now();
  }
  if (!window_open_) {
    window_start_ = align_down(update.time, config_.rotate_secs);
    window_open_ = true;
  }
  if (rib_entry) {
    buffer_.write_rib_entry(update);
  } else {
    buffer_.write_update(update);
  }
  active_.observe(update, rib_entry);
  ++records_appended_;
  instruments_.records_appended.inc();
  if (buffer_.buffer().size() >= config_.flush_bytes) flush();
}

void SegmentWriter::tick(Timestamp now) {
  if (window_open_ && now >= window_start_ + config_.rotate_secs) {
    rotate_now();
  }
}

void SegmentWriter::flush() {
  if (buffer_.buffer().empty()) return;
  std::vector<std::uint8_t> chunk = buffer_.release();
  scheduled_bytes_ += chunk.size();
  const std::size_t bytes = chunk.size();
  post([this, chunk = std::move(chunk)]() mutable {
    do_append(std::move(chunk));
  }, bytes);
}

void SegmentWriter::rotate_now() {
  if (!window_open_ || active_.records() == 0) return;
  SegmentMeta meta = std::move(active_);
  std::vector<std::uint8_t> tail = buffer_.release();
  meta.payload_bytes = scheduled_bytes_ + tail.size();
  meta.file = segment_file_name(window_start_, next_seq_++);
  scheduled_bytes_ = 0;
  active_ = SegmentMeta{};
  window_open_ = false;
  const std::size_t bytes = tail.size();
  post([this, tail = std::move(tail), meta = std::move(meta)]() mutable {
    do_seal(std::move(tail), std::move(meta));
  }, bytes);
}

void SegmentWriter::post(std::function<void()> job, std::size_t bytes) {
  if (config_.pool == nullptr) {
    job();  // inline mode: deterministic, no cross-thread handoff
    return;
  }
  bool schedule = false;
  {
    std::unique_lock lock(queue_mutex_);
    // Backpressure: past the cap the caller waits for the I/O worker, so
    // the queue's memory stays bounded however slow the disk is. The wait
    // holds no lock a job needs (jobs take queue_mutex_ only to pop). One
    // chunk larger than the cap still goes through an empty queue.
    const std::size_t cap = kMaxPendingChunks * config_.flush_bytes;
    room_.wait(lock, [&] {
      return pending_bytes_ == 0 || pending_bytes_ + bytes <= cap;
    });
    pending_bytes_ += bytes;
    jobs_.push_back(Job{std::move(job), bytes});
    if (!job_running_) {
      job_running_ = true;
      schedule = true;
    }
  }
  // One run_jobs drains the whole queue: jobs of one writer never overlap
  // even on a many-worker pool (append order = disk order).
  if (schedule) config_.pool->post([this] { run_jobs(); });
}

void SegmentWriter::run_jobs() {
  std::size_t done_bytes = 0;  // of the job that just ran
  for (;;) {
    Job job;
    {
      std::lock_guard lock(queue_mutex_);
      pending_bytes_ -= done_bytes;
      if (jobs_.empty()) {
        job_running_ = false;
        idle_.notify_all();
        room_.notify_all();
        return;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (done_bytes > 0) room_.notify_all();
    job.run();
    done_bytes = job.bytes;
  }
}

bool SegmentWriter::ensure_active_fd() {
  if (active_fd_ < 0) {
    active_fd_ = ::open(active_path().c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (active_fd_ < 0) dead_.store(true, std::memory_order_release);
  }
  return active_fd_ >= 0;
}

void SegmentWriter::count_enospc(std::size_t dropped_bytes) {
  enospc_events_.fetch_add(1, std::memory_order_relaxed);
  instruments_.enospc_events.inc();
  instruments_.enospc_dropped_bytes.inc(dropped_bytes);
  std::fprintf(stderr,
               "gill-archive: ENOSPC on %s, dropped %zu bytes "
               "(collection continues)\n",
               active_path().c_str(), dropped_bytes);
}

void SegmentWriter::do_append(std::vector<std::uint8_t> bytes) {
  if (failed() || !ensure_active_fd()) return;
  // Consume an armed fault hook; the I/O below runs with no lock held.
  std::size_t limit = bytes.size();
  bool enospc = false;
  bool torn = false;
  {
    std::lock_guard lock(state_mutex_);
    if (enospc_fault_armed_) {
      enospc_fault_armed_ = false;
      enospc = true;
    } else if (fault_armed_) {
      // The injected crash: a torn write with no fsync, then silence.
      fault_armed_ = false;
      torn = true;
      limit = std::min(limit, torn_write_bytes_);
    }
  }
  if (enospc) {
    count_enospc(bytes.size());
    return;
  }
  std::size_t written = 0;
  while (written < limit) {
    const ssize_t n =
        ::write(active_fd_, bytes.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        // Full disk is an operational condition, not a bug: drop the rest
        // of this chunk, count and log it, and keep the writer alive so
        // collection resumes the moment the operator frees space.
        count_enospc(limit - written);
        break;
      }
      dead_.store(true, std::memory_order_release);
      return;
    }
    written += static_cast<std::size_t>(n);
  }
  if (torn) {
    dead_.store(true, std::memory_order_release);
    return;
  }
  instruments_.bytes_written.inc(written);
  const metrics::Timer timer(instruments_.fsync_us);
  if (::fsync(active_fd_) != 0) dead_.store(true, std::memory_order_release);
}

void SegmentWriter::do_seal(std::vector<std::uint8_t> tail, SegmentMeta meta) {
  const metrics::Timer timer(instruments_.rotate_us);
  do_append(std::move(tail));
  // An all-buffered segment (no flush ever ran) still needs its file.
  if (failed() || !ensure_active_fd()) return;
  const auto fail = [this] { dead_.store(true, std::memory_order_release); };
  // The footer must describe what is actually on disk: after an ENOSPC
  // drop the file is shorter than the buffered payload, and a footer
  // claiming the buffered size would fail read_footer's consistency check
  // (turning a counted degradation into a silently unreadable segment).
  const off_t on_disk = ::lseek(active_fd_, 0, SEEK_END);
  if (on_disk >= 0) meta.payload_bytes = static_cast<std::uint64_t>(on_disk);
  meta.raw_bytes = meta.payload_bytes;
  meta.codec = kCodecNone;
  {
    const metrics::Timer bloom_timer(instruments_.bloom_finalize_us);
    meta.bloom.finalize();
  }
  std::vector<std::uint8_t> footer;
  append_footer(footer, meta);
  std::size_t written = 0;
  while (written < footer.size()) {
    const ssize_t n =
        ::write(active_fd_, footer.data() + written, footer.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail();
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(active_fd_) != 0) return fail();
  ::close(active_fd_);
  active_fd_ = -1;
  const std::string sealed_path =
      (fs::path(config_.directory) / meta.file).string();
  if (::rename(active_path().c_str(), sealed_path.c_str()) != 0) {
    return fail();
  }
  // The rename is durable only once the directory entry itself is on disk
  // (write_file_atomic fsyncs the directory for the manifest; the sealed
  // segment's new name needs the same).
  const int dir_fd = ::open(config_.directory.c_str(),
                            O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  // Compression is a second, independent publish: the raw seal above is
  // already crash-safe (rename is atomic), so the compressed image simply
  // replaces the sealed file under the SAME name via write-to-temp +
  // rename. A crash at any point leaves a valid sealed segment — raw
  // before the swap, zstd after — never a duplicate and never a hole. Any
  // failure here (codec, I/O) keeps the raw seal and moves on.
  if (config_.compress && compression_available() && meta.payload_bytes > 0) {
    auto raw = read_file(sealed_path);
    if (raw && raw->size() >= meta.payload_bytes) {
      raw->resize(meta.payload_bytes);
      if (auto compressed = compress_payload(*raw)) {
        SegmentMeta zmeta = meta;
        zmeta.codec = kCodecZstd;
        zmeta.payload_bytes = compressed->size();
        std::vector<std::uint8_t> image = std::move(*compressed);
        append_footer(image, zmeta);
        if (write_file_atomic(sealed_path, image)) {
          instruments_.compressed_segments.inc();
          if (zmeta.raw_bytes > zmeta.payload_bytes) {
            instruments_.compression_saved_bytes.inc(zmeta.raw_bytes -
                                                     zmeta.payload_bytes);
          }
          meta = std::move(zmeta);
        }
      }
    }
  }
  {
    std::lock_guard lock(state_mutex_);
    sealed_.push_back(std::move(meta));
  }
  // index.json is rewritten before the generation moves: a reader that
  // reloads the manifest on a new generation finds the new segment in it.
  const std::string json = manifest_to_json(sealed_);
  const bool indexed = write_file_atomic(
      (fs::path(config_.directory) / kManifestName).string(),
      std::span(reinterpret_cast<const std::uint8_t*>(json.data()),
                json.size()));
  {
    std::lock_guard lock(state_mutex_);
    ++sealed_count_;
    ++manifest_generation_;
  }
  if (!indexed) return fail();
  instruments_.segments_written.inc();
}

void SegmentWriter::wait_idle() {
  if (config_.pool == nullptr) return;  // inline mode: nothing pending
  std::unique_lock lock(queue_mutex_);
  idle_.wait(lock, [this] { return jobs_.empty() && !job_running_; });
}

void SegmentWriter::close() {
  rotate_now();
  wait_idle();
  // No job is left to touch the fd.
  if (active_fd_ >= 0) {
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

void SegmentWriter::run_retention(
    const RetentionPolicy& policy, const SegmentPins* pins, Timestamp now,
    std::function<void(const std::string&)> on_deleted) {
  if (!policy.enabled()) return;
  // A serialized job, like sealing: GC and seals rewrite the same manifest
  // and must never interleave.
  post([this, policy, pins, now, on_deleted = std::move(on_deleted)] {
    if (failed()) return;
    auto result = run_gc(config_.directory, sealed_, policy, pins, now);
    if (!result) {
      // The manifest rewrite failed; nothing was deleted.
      dead_.store(true, std::memory_order_release);
      return;
    }
    instruments_.gc_skipped_pinned.inc(result->skipped_pinned);
    if (result->deleted_files.empty()) return;
    {
      std::lock_guard lock(state_mutex_);
      sealed_ = std::move(result->remaining);
      ++manifest_generation_;
    }
    instruments_.gc_deleted_segments.inc(result->deleted_files.size());
    instruments_.gc_deleted_bytes.inc(result->deleted_bytes);
    if (on_deleted) {
      for (const std::string& file : result->deleted_files) on_deleted(file);
    }
  }, 0);
}

std::vector<SegmentMeta> SegmentWriter::manifest() const {
  std::lock_guard lock(state_mutex_);
  return sealed_;
}

std::uint64_t SegmentWriter::manifest_generation() const {
  std::lock_guard lock(state_mutex_);
  return manifest_generation_;
}

std::uint64_t SegmentWriter::segments_sealed() const {
  std::lock_guard lock(state_mutex_);
  return sealed_count_;
}

void SegmentWriter::fault_torn_write(std::size_t bytes) {
  std::lock_guard lock(state_mutex_);
  fault_armed_ = true;
  torn_write_bytes_ = bytes;
}

void SegmentWriter::fault_enospc() {
  std::lock_guard lock(state_mutex_);
  enospc_fault_armed_ = true;
}

}  // namespace gill::archive
