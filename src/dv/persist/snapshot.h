// Versioned, checksummed binary snapshot container for ΔV sessions.
//
// Layout: 8-byte magic "DVSNAP01", then a sequence of framed sections
//
//   [u32 tag][u64 payload_len][payload bytes][u32 crc32]
//
// where the CRC covers tag + length + payload, so a flipped byte anywhere
// in a frame — framing included — breaks its checksum. The final section
// has tag "END!" and carries [u64 bytes_before_end][u32 file_crc], a
// file-level CRC over everything before the end section: a truncated file
// either cuts a section short (its declared length overruns the buffer)
// or loses the end marker, and a flip that somehow survived a section CRC
// still breaks the file CRC. Restore therefore fails loudly on any torn
// or corrupted snapshot; it can never silently decode garbage.
//
// All integers are little-endian. The codec targets little-endian hosts
// only (a static_assert enforces it), so a word or a whole scalar vector
// is one memcpy; Values are still serialized field by field, as a 1-byte
// type tag plus their 8-byte payload bit pattern — never as raw structs,
// whose padding bytes would make the checksum nondeterministic.
//
// Each byte is checksummed once per side: the file CRC is not a second
// pass over the body but is folded together from the section CRCs with
// crc32_combine, which yields exactly the value a direct pass would.
//
// SnapshotWriter buffers in memory (fault-injection tests corrupt the
// buffer directly) and write_file() lands via tmp + rename without fsync,
// so a process crash mid-write can tear the tmp file but never the target
// path (a power loss may lose both).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dv/runtime/value.h"

namespace deltav::dv::persist {

static_assert(std::endian::native == std::endian::little,
              "the snapshot codec copies words in host order, which must "
              "be the little-endian file order");

/// Any snapshot problem: framing/CRC damage, version or section mismatch,
/// or decoded state inconsistent with the restoring program/options. The
/// message is the operator-facing reason (DvStreamSession surfaces it when
/// falling back to a cold rebuild).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), seedable for incremental use.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed = 0);

/// crc32(A‖B) from crc32(A), crc32(B) and |B|, without touching the bytes.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

/// Little-endian word access through a cursor that advances past the
/// word, for filling a put_records() block or decoding a get_records()
/// one.
namespace le {
inline void put_u64(std::uint8_t*& p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
  p += sizeof v;
}
inline void put_f64(std::uint8_t*& p, double v) {
  put_u64(p, std::bit_cast<std::uint64_t>(v));
}
inline std::uint64_t get_u64(const std::uint8_t*& p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return v;
}
inline double get_f64(const std::uint8_t*& p) {
  return std::bit_cast<double>(get_u64(p));
}
}  // namespace le

/// Section tags of the session snapshot layout, in their fixed file order.
inline constexpr std::uint32_t kSecMeta = 0x4154454d;    // "META"
inline constexpr std::uint32_t kSecGraph = 0x48505247;   // "GRPH"
inline constexpr std::uint32_t kSecRunner = 0x534e5552;  // "RUNS"
inline constexpr std::uint32_t kSecEngine = 0x4e474e45;  // "ENGN"
inline constexpr std::uint32_t kSecRetract = 0x43525452;  // "RTRC"
inline constexpr std::uint32_t kSecEnd = 0x21444e45;     // "END!"

class SnapshotWriter {
 public:
  /// `expected_bytes` pre-sizes the buffer (e.g. the previous snapshot's
  /// size), so a large save grows it rarely or never.
  explicit SnapshotWriter(std::size_t expected_bytes = 0);

  void begin_section(std::uint32_t tag);
  void end_section();

  void put_u8(std::uint8_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);
  void put_value(const Value& v);
  void put_string(const std::string& s);

  void put_u8_vec(const std::vector<std::uint8_t>& v);
  void put_u32_vec(const std::vector<std::uint32_t>& v);
  void put_u64_vec(const std::vector<std::uint64_t>& v);
  void put_i32_vec(const std::vector<std::int32_t>& v);
  void put_f64_vec(const std::vector<double>& v);

  /// Writes `count` as a u64 — the layout every put_*_vec uses — and
  /// appends count × record_bytes payload bytes for the caller to fill
  /// (see le::). The pointer is valid until the next put.
  std::uint8_t* put_records(std::size_t count, std::size_t record_bytes);

  /// Writes the end section (size + file CRC). Call exactly once, after
  /// the last end_section(); the writer is sealed afterwards.
  void finish();

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take_bytes() && { return std::move(buf_); }

  /// Atomic file write: <path>.tmp, flush, rename. Requires finish().
  void write_file(const std::string& path) const;

 private:
  std::uint8_t* grow(std::size_t n);  // appends n bytes to fill
  void raw_u32(std::uint32_t v);
  void raw_u64(std::uint64_t v);

  std::vector<std::uint8_t> buf_;
  std::size_t section_start_ = 0;  // offset of the open section's tag
  std::uint32_t body_crc_ = 0;     // CRC of every byte so far (sealed frames)
  double crc_seconds_ = 0;         // CRC time, observed once by finish()
  bool in_section_ = false;
  bool finished_ = false;
};

class SnapshotReader {
 public:
  /// Validates magic, section framing, every section CRC, the end marker
  /// and the file CRC up front; throws SnapshotError on any damage, so
  /// typed getters only ever run over verified bytes.
  explicit SnapshotReader(std::vector<std::uint8_t> bytes);

  static SnapshotReader from_file(const std::string& path);

  /// Opens the next section, which must carry `tag` (sections are read in
  /// the same fixed order they are written).
  void open(std::uint32_t tag);
  /// Ends the open section; throws if payload bytes were left unread
  /// (a length/content mismatch the CRC could not classify).
  void close();

  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  Value get_value();
  std::string get_string();

  std::vector<std::uint8_t> get_u8_vec();
  std::vector<std::uint32_t> get_u32_vec();
  std::vector<std::uint64_t> get_u64_vec();
  std::vector<std::int32_t> get_i32_vec();
  std::vector<double> get_f64_vec();

  /// A put_records() block: the count is checked against the rest of the
  /// section once, before the caller decodes (see le::) or allocates.
  struct Records {
    const std::uint8_t* data;
    std::size_t count;
  };
  Records get_records(std::size_t record_bytes);

  /// Requires every section (besides the end marker) to have been read.
  void finish() const;

 private:
  struct Section {
    std::uint32_t tag;
    std::size_t payload_off;
    std::size_t payload_len;
  };

  void need(std::size_t n) const;  // bounds check within the open section
  std::size_t vec_len(std::size_t elem_bytes);

  std::vector<std::uint8_t> buf_;
  std::vector<Section> sections_;  // end marker excluded
  std::size_t next_section_ = 0;
  bool in_section_ = false;
  std::size_t cur_ = 0;  // read cursor (absolute offset)
  std::size_t cur_end_ = 0;
};

/// Reads a whole file; throws SnapshotError (with errno text) on failure.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

}  // namespace deltav::dv::persist
