// Sparse byte-addressable physical memory, backed by a pooled frame arena.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace whisper::mem {

/// An immutable run of consecutive 4 KiB frames, built once and shared
/// read-only by any number of PhysicalMemory instances as their base layer
/// (the kernel image every machine boots with). Each frame's digest term is
/// computed once here, so a memory reading through the image digests it in
/// O(1) instead of rescanning its bytes.
class FrameImage {
 public:
  /// `bytes` holds the frames first_frame, first_frame + 1, ... in order;
  /// its size must be a non-zero multiple of the frame size.
  FrameImage(std::uint64_t first_frame, std::vector<std::uint8_t> bytes);

  /// The frame's bytes, or nullptr when the image does not hold it.
  [[nodiscard]] const std::uint8_t* frame(
      std::uint64_t frame_no) const noexcept;
  /// PhysicalMemory::digest()'s term for a held frame.
  [[nodiscard]] std::uint64_t term(std::uint64_t frame_no) const noexcept {
    return terms_[frame_no - first_frame_];
  }
  /// Sum of every frame's term: the digest of a memory holding just this.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::uint64_t first_frame() const noexcept {
    return first_frame_;
  }
  [[nodiscard]] std::size_t frames() const noexcept { return terms_.size(); }

 private:
  std::uint64_t first_frame_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint64_t> terms_;
  std::uint64_t digest_ = 0;
};

/// Physical memory backed by lazily allocated 4 KiB frames. Reads of
/// never-written frames return zero, as DRAM-after-scrub would.
///
/// An optional shared FrameImage sits underneath as a read-only base layer:
/// a frame lookup falls through to it when no local frame shadows that
/// frame number, and the first write to a base frame copies it into the
/// local arena (copy-on-write). The image's bytes are never modified.
///
/// Frames live in one flat arena indexed by *slot*; a frame number → slot
/// map plus a free list make allocation O(1) and keep every frame's storage
/// alive across snapshot/reset cycles (no per-trial reallocation).
///
/// snapshot()/reset() implement the trial fast path: snapshot() marks the
/// current contents as the baseline (O(1) — nothing is copied up front),
/// after which the first write to each baseline frame saves an undo copy of
/// it. reset() plays the undo log back, zeroes and frees every frame
/// allocated since the snapshot (so a reset machine reads zeroes, or the
/// base image, exactly where a fresh one would), and starts a new undo
/// epoch. A copy-on-write copy made after snapshot() counts as such a new
/// frame. Cost is proportional to the frames actually written, not to the
/// footprint.
class PhysicalMemory {
 public:
  static constexpr std::uint64_t kFrameSize = 4096;

  [[nodiscard]] std::uint8_t read8(std::uint64_t paddr) const;
  [[nodiscard]] std::uint64_t read64(std::uint64_t paddr) const;
  void write8(std::uint64_t paddr, std::uint8_t value);
  void write64(std::uint64_t paddr, std::uint64_t value);

  /// Bulk helpers for loading victim data / kernel secrets.
  void write_bytes(std::uint64_t paddr, const std::uint8_t* data,
                   std::size_t len);
  [[nodiscard]] std::vector<std::uint8_t> read_bytes(std::uint64_t paddr,
                                                     std::size_t len) const;
  /// Fill `out` from paddr onward: one frame lookup and one copy per frame
  /// the range touches.
  void read_into(std::uint64_t paddr, std::span<std::uint8_t> out) const;

  /// Read through `image` wherever no local frame shadows it. Throws
  /// std::logic_error after snapshot(): the baseline digest would go stale.
  void set_base(std::shared_ptr<const FrameImage> image);
  [[nodiscard]] const std::shared_ptr<const FrameImage>& base() const noexcept {
    return base_;
  }

  /// Mark the current contents as the baseline reset() restores. O(1);
  /// clears the undo log and begins dirty tracking. May be called again to
  /// re-baseline.
  void snapshot();
  /// Restore the baseline: undo every write to a pre-snapshot frame, zero
  /// and free every frame allocated since. Throws std::logic_error if no
  /// snapshot was taken.
  void reset();
  [[nodiscard]] bool snapshotted() const noexcept { return has_baseline_; }

  /// Number of local (allocated) frames, copy-on-write copies included;
  /// base-image frames read through are not counted.
  [[nodiscard]] std::size_t allocated_frames() const noexcept {
    return slot_of_.size();
  }
  /// Arena capacity in frames: live + pooled-free. Never shrinks; a steady
  /// snapshot/reset cycle stops growing after the first trial.
  [[nodiscard]] std::size_t pool_frames() const noexcept {
    return frame_of_slot_.size();
  }
  /// Frames written (or newly allocated) since the last snapshot()/reset().
  [[nodiscard]] std::size_t dirty_frames() const noexcept {
    return undo_slots_.size() + alloc_since_.size();
  }

  /// Order-independent digest of the live frame set (frame numbers and
  /// contents): local frames plus the base frames they do not shadow. Two
  /// memories with the same live frames holding the same bytes digest equal
  /// regardless of allocation order or of which frames come from a base
  /// image, so the runner can compare a reset() machine against its
  /// snapshot baseline and detect silent drift. Cost is a scan of the local
  /// frames only; the base image contributes its cached terms.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  /// Fault-injection hook: flip one byte of the lowest-numbered live frame,
  /// bypassing the undo log — reset() cannot restore it, so the corruption
  /// models exactly the silent snapshot drift digest() exists to catch.
  /// A base frame is first copied into the arena, also outside the undo
  /// log; the shared image is never touched. No-op on an empty memory.
  /// Deterministic: same memory, same flip.
  void corrupt_frame_for_test() noexcept;

 private:
  [[nodiscard]] std::uint8_t* frame_for_write(std::uint64_t paddr);
  [[nodiscard]] const std::uint8_t* frame_if_present(
      std::uint64_t paddr) const;
  /// A local slot for frame_no holding its base-image bytes (zeroes when
  /// the image lacks it). Does no undo-log bookkeeping.
  std::uint32_t alloc_slot(std::uint64_t frame_no);

  std::vector<std::uint8_t> arena_;            // pool_frames() * kFrameSize
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_;  // frame# → slot
  std::vector<std::uint64_t> frame_of_slot_;   // slot → frame# (live slots)
  std::vector<std::uint32_t> free_slots_;      // recycled, zeroed slots
  std::shared_ptr<const FrameImage> base_;     // read-only, may be null

  // Undo log for the current epoch. A slot appears in at most one of the
  // two lists: undo_slots_ for baseline frames (first write saves the
  // pre-write bytes into undo_data_), alloc_since_ for frames allocated
  // after the snapshot (zeroed and freed on reset).
  bool has_baseline_ = false;
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> slot_epoch_;      // slot → last epoch touched
  std::vector<std::uint32_t> undo_slots_;
  std::vector<std::uint8_t> undo_data_;        // undo_slots_ * kFrameSize
  std::vector<std::uint32_t> alloc_since_;
};

}  // namespace whisper::mem
