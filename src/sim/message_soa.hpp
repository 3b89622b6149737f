// Structure-of-arrays message storage — the wire format of the inbox arenas.
//
// The NCC0 model only ever moves O(log n)-bit messages, and most protocols in
// this library carry a single payload word (a node identifier). Shipping the
// fixed 32-byte `Message` struct through every arena therefore moves 2-3x the
// bytes the protocols actually use, and at 1M+-node scenarios the inbox copy
// is memory-bandwidth bound. `MessageSoA` stores messages column-major:
//
//   src[]   kind[]   word0[]   ext[]          spill[]
//   4 B     4 B      8 B       4 B            16 B per *multi-word* message
//
// One-word messages cost kSoaRowBytes = 20 bytes; the rare multi-word
// payloads (words 1..2 nonzero) spill their extra words to the side arena and
// are referenced through the `ext` column (kNoExt = no spill). Protocols read
// messages through the zero-copy `MessageView`/`InboxView` API and enqueue
// through the engines' batched `SendBatch`/`SendFanout` paths, so the hot
// delivery loop never touches cold payload words.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <span>
#include <type_traits>
#include <vector>

#include "common/ids.hpp"
#include "sim/message.hpp"

namespace overlay {

/// Sentinel in the `ext` column: the message has no payload beyond word 0.
inline constexpr std::uint32_t kNoExt = 0xFFFFFFFFu;

/// Spilled payload: words 1..kMessageWords-1 of a multi-word message.
struct ExtWords {
  std::array<std::uint64_t, kMessageWords - 1> w{};

  friend bool operator==(const ExtWords&, const ExtWords&) = default;
};

/// Bytes one message row occupies across the four parallel columns.
inline constexpr std::size_t kSoaRowBytes =
    sizeof(NodeId) + sizeof(std::uint32_t) + sizeof(std::uint64_t) +
    sizeof(std::uint32_t);

/// Bytes a spilled multi-word payload adds on top of its row.
inline constexpr std::size_t kSpillBytes = sizeof(ExtWords);

/// Bytes the array-of-structs layout moved per message (the old wire format;
/// the bench's baseline when reporting layout wins).
inline constexpr std::size_t kAosRowBytes = sizeof(Message);

// The wire format is load-bearing for the bandwidth claims and for the
// cross-engine bit-identity guarantees; pin it down.
static_assert(sizeof(NodeId) == 4, "NodeId column must be 4 bytes");
static_assert(sizeof(ExtWords) == 8 * (kMessageWords - 1),
              "spill entries must pack the extra words with no padding");
static_assert(alignof(ExtWords) == 8, "spill arena is 8-byte aligned");
static_assert(std::is_trivially_copyable_v<ExtWords>,
              "spill runs must be bulk-copyable between shards");
static_assert(kSoaRowBytes == 20, "SoA row is 20 bytes (62.5% of the AoS row)");
static_assert(kAosRowBytes == 32, "Message is 32 bytes");

/// One batched send: destination plus a one-word payload. The engine stamps
/// `src` at enqueue exactly as it does for `Send`. Multi-word sends go
/// through the `Message`-taking `Send` and the spill arena.
struct Envelope {
  NodeId to = kInvalidNode;
  std::uint32_t kind = 0;
  std::uint64_t word0 = 0;
};

static_assert(sizeof(Envelope) == 16, "Envelope packs to two words");

/// One staged message row of the multi-shard exchange: routing plus the
/// full one-word payload in 24 contiguous bytes. Row ops (the staging
/// scatter/gather hop) want AoS — one store moves the whole row and touches
/// one cache line — while arena scans stay SoA; PackedRow is the AoS side of
/// that split. `ext` indexes the side spill buffer the row was packed
/// against (kNoExt = one-word message).
struct PackedRow {
  NodeId to = kInvalidNode;
  NodeId src = kInvalidNode;
  std::uint32_t kind = 0;
  std::uint32_t ext = kNoExt;
  std::uint64_t word0 = 0;
};

/// Bytes one staged row occupies on the inter-shard hop.
inline constexpr std::size_t kPackedRowBytes = sizeof(PackedRow);

static_assert(kPackedRowBytes == 24,
              "PackedRow is to|src|kind|ext|word0 with no padding");
static_assert(alignof(PackedRow) == 8, "word0 keeps the row 8-byte aligned");
static_assert(std::is_trivially_copyable_v<PackedRow>,
              "staging runs must be bulk-copyable");

/// Column-major message buffer: outboxes, staging buffers, and delivered
/// inbox arenas are all instances. Routing (`to`) and arrival metadata live
/// in separate engine-owned columns so passes that only route touch 4 bytes
/// per message.
class MessageSoA {
 public:
  std::size_t size() const { return src_.size(); }
  bool empty() const { return src_.empty(); }

  void clear() {
    src_.clear();
    kind_.clear();
    word0_.clear();
    ext_.clear();
    spill_.clear();
  }

  void reserve(std::size_t rows) {
    src_.reserve(rows);
    kind_.reserve(rows);
    word0_.reserve(rows);
    ext_.reserve(rows);
  }

  /// Appends a one-word message (the hot path; no spill-arena traffic).
  void PushOneWord(NodeId src, std::uint32_t kind, std::uint64_t word0) {
    src_.push_back(src);
    kind_.push_back(kind);
    word0_.push_back(word0);
    ext_.push_back(kNoExt);
  }

  /// Appends `msg` with `src` stamped; extra payload words spill.
  void PushMessage(NodeId src, const Message& msg) {
    src_.push_back(src);
    kind_.push_back(msg.kind);
    word0_.push_back(msg.words[0]);
    ExtWords extra;
    bool any = false;
    for (std::size_t k = 1; k < kMessageWords; ++k) {
      extra.w[k - 1] = msg.words[k];
      any = any || msg.words[k] != 0;
    }
    if (any) {
      ext_.push_back(static_cast<std::uint32_t>(spill_.size()));
      spill_.push_back(extra);
    } else {
      ext_.push_back(kNoExt);
    }
  }

  /// Appends row `i` of `other` (its spill payload, if any, is copied into
  /// this buffer's spill arena).
  void AppendRowFrom(const MessageSoA& other, std::size_t i) {
    src_.push_back(other.src_[i]);
    kind_.push_back(other.kind_[i]);
    word0_.push_back(other.word0_[i]);
    const std::uint32_t e = other.ext_[i];
    if (e == kNoExt) {
      ext_.push_back(kNoExt);
    } else {
      ext_.push_back(static_cast<std::uint32_t>(spill_.size()));
      spill_.push_back(other.spill_[e]);
    }
  }

  /// Appends rows [begin, begin + count) of `other` and returns the bytes
  /// that landed in this buffer — the engines' arena-bandwidth accounting.
  std::uint64_t AppendRowsFrom(const MessageSoA& other, std::size_t begin,
                               std::size_t count) {
    std::uint64_t bytes = 0;
    for (std::size_t i = begin; i < begin + count; ++i) {
      AppendRowFrom(other, i);
      bytes += kSoaRowBytes + (other.ext_[i] == kNoExt ? 0 : kSpillBytes);
    }
    return bytes;
  }

  /// Presizes the columns for scatter writes via AssignRowFrom. Existing row
  /// contents are unspecified afterwards; the spill arena is reset.
  void ResizeForScatter(std::size_t rows) {
    src_.resize(rows);
    kind_.resize(rows);
    word0_.resize(rows);
    ext_.resize(rows);
    spill_.clear();
  }

  /// Scatter write: row `i` of *this* becomes row `j` of `other`. Only valid
  /// after ResizeForScatter (each row written exactly once, single-threaded
  /// per buffer).
  void AssignRowFrom(std::size_t i, const MessageSoA& other, std::size_t j) {
    src_[i] = other.src_[j];
    kind_[i] = other.kind_[j];
    word0_[i] = other.word0_[j];
    const std::uint32_t e = other.ext_[j];
    if (e == kNoExt) {
      ext_[i] = kNoExt;
    } else {
      ext_[i] = static_cast<std::uint32_t>(spill_.size());
      spill_.push_back(other.spill_[e]);
    }
  }

  /// Packs row `i` for the inter-shard hop: routing (`to`) plus the whole
  /// one-word payload in one 24-byte row. A spill payload is appended to
  /// `spill_out` and re-referenced through the packed `ext`, so the packed
  /// rows plus the `spill_out` they were packed against are independent of
  /// this buffer (it may be cleared or reused while they are in flight).
  /// Callers keep one `spill_out` *per destination run* (the sharded
  /// engine's spill_by_dst), so every run plus its own side buffer is
  /// self-contained — resolvable without any other destination's spill
  /// entries.
  PackedRow PackRow(NodeId to, std::size_t i,
                    std::vector<ExtWords>& spill_out) const {
    PackedRow row{to, src_[i], kind_[i], kNoExt, word0_[i]};
    const std::uint32_t e = ext_[i];
    if (e != kNoExt) {
      row.ext = static_cast<std::uint32_t>(spill_out.size());
      spill_out.push_back(spill_[e]);
    }
    return row;
  }

  /// Column-wise unpack of a packed run into rows [0, rows.size()): each
  /// column is written in one sequential pass (the arena-side inverse of
  /// PackRow; `spill` is the side buffer the runs were packed against, and
  /// the packed `ext` indices must already be positional into it). Replaces
  /// the buffer's contents.
  void UnpackColumns(std::span<const PackedRow> rows,
                     std::span<const ExtWords> spill) {
    ResizeForScatter(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) src_[i] = rows[i].src;
    for (std::size_t i = 0; i < rows.size(); ++i) kind_[i] = rows[i].kind;
    for (std::size_t i = 0; i < rows.size(); ++i) word0_[i] = rows[i].word0;
    for (std::size_t i = 0; i < rows.size(); ++i) ext_[i] = rows[i].ext;
    spill_.assign(spill.begin(), spill.end());
  }

  /// Rows currently spilled (the send paths' rollback mark).
  std::size_t spill_size() const { return spill_.size(); }

  /// Drops every row past `rows` (and every spill entry past `spill_rows`) —
  /// the send paths' rollback after a mid-batch validation failure, keeping
  /// the throws-with-nothing-enqueued contract without a pre-validation pass.
  void TruncateTo(std::size_t rows, std::size_t spill_rows) {
    src_.resize(rows);
    kind_.resize(rows);
    word0_.resize(rows);
    ext_.resize(rows);
    spill_.resize(spill_rows);
  }

  /// Swaps rows `i` and `j`. Spill payloads stay put — their `ext` indices
  /// travel with the rows — so capacity enforcement permutes 20 bytes per
  /// swap regardless of payload width.
  void SwapRows(std::size_t i, std::size_t j) {
    std::swap(src_[i], src_[j]);
    std::swap(kind_[i], kind_[j]);
    std::swap(word0_[i], word0_[j]);
    std::swap(ext_[i], ext_[j]);
  }

  /// Moves row `from` onto row `to` within this buffer (leftward compaction
  /// after drops; the spill entry stays put, its index travels). `from`'s
  /// contents are left stale — callers shrink their offsets past them.
  void MoveRowWithin(std::size_t from, std::size_t to) {
    src_[to] = src_[from];
    kind_[to] = kind_[from];
    word0_[to] = word0_[from];
    ext_[to] = ext_[from];
  }

  NodeId src(std::size_t i) const { return src_[i]; }
  std::uint32_t kind(std::size_t i) const { return kind_[i]; }
  std::uint64_t word0(std::size_t i) const { return word0_[i]; }
  bool has_spill(std::size_t i) const { return ext_[i] != kNoExt; }

  /// Payload word `k` of row `i` (k = 0 reads the hot column; k >= 1 reads
  /// the spill arena, 0 when the message never spilled).
  std::uint64_t word(std::size_t i, std::size_t k) const {
    if (k == 0) return word0_[i];
    const std::uint32_t e = ext_[i];
    return e == kNoExt ? 0 : spill_[e].w[k - 1];
  }

  /// Reconstructs the AoS form of row `i` (tests and slow paths only).
  Message MessageAt(std::size_t i) const {
    Message m;
    m.src = src_[i];
    m.kind = kind_[i];
    for (std::size_t k = 0; k < kMessageWords; ++k) m.words[k] = word(i, k);
    return m;
  }

 private:
  std::vector<NodeId> src_;
  std::vector<std::uint32_t> kind_;
  std::vector<std::uint64_t> word0_;
  std::vector<std::uint32_t> ext_;
  std::vector<ExtWords> spill_;
};

/// Zero-copy read handle onto one row of a MessageSoA. Valid as long as the
/// underlying buffer is not mutated (engines: until the next EndRound).
class MessageView {
 public:
  MessageView(const MessageSoA& soa, std::size_t row) : soa_(&soa), row_(row) {}

  NodeId src() const { return soa_->src(row_); }
  std::uint32_t kind() const { return soa_->kind(row_); }
  std::uint64_t word0() const { return soa_->word0(row_); }
  std::uint64_t word(std::size_t k) const { return soa_->word(row_, k); }

  /// Convenience: treat word 0 as a node identifier payload.
  NodeId IdPayload() const { return static_cast<NodeId>(word0()); }

  /// Materializes the AoS form (copies the spill words; not a hot-path op).
  Message ToMessage() const { return soa_->MessageAt(row_); }

 private:
  const MessageSoA* soa_;
  std::size_t row_;
};

/// A node's delivered inbox: a contiguous row range of an engine's arena,
/// iterable as MessageViews. Replaces std::span<const Message> in the
/// NetworkEngine API; invalidated by the next EndRound, like the span was.
class InboxView {
 public:
  class iterator {
   public:
    using value_type = MessageView;
    using difference_type = std::ptrdiff_t;
    // operator* returns a prvalue MessageView, so the iterator is only a
    // Cpp17InputIterator (reference is not a real reference); for C++20
    // ranges, which drop that requirement, it is multi-pass and advertises
    // forward strength via iterator_concept.
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using reference = MessageView;
    using pointer = void;

    iterator() : soa_(nullptr), row_(0) {}
    iterator(const MessageSoA* soa, std::size_t row) : soa_(soa), row_(row) {}

    MessageView operator*() const { return {*soa_, row_}; }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++row_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.row_ == b.row_;
    }

   private:
    const MessageSoA* soa_;
    std::size_t row_;
  };

  InboxView() : soa_(nullptr), begin_(0), end_(0) {}
  InboxView(const MessageSoA& soa, std::size_t begin, std::size_t end)
      : soa_(&soa), begin_(begin), end_(end) {}

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }

  /// View of the k-th delivered message (k relative to this inbox).
  MessageView operator[](std::size_t k) const { return {*soa_, begin_ + k}; }

  iterator begin() const { return {soa_, begin_}; }
  iterator end() const { return {soa_, end_}; }

 private:
  const MessageSoA* soa_;
  std::size_t begin_;
  std::size_t end_;
};

}  // namespace overlay
