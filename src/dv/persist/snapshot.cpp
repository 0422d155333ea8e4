#include "dv/persist/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/timer.h"
#include "dv/obs/obs.h"

namespace deltav::dv::persist {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'D', 'V', 'S', 'N',
                                                'A', 'P', '0', '1'};

constexpr std::uint32_t kCrcPoly = 0xedb88320u;  // IEEE 802.3, reflected

// Slicing-by-16: table[0] is the classic bytewise table; table[k][b] is
// the CRC of byte b followed by k zero bytes, so one step folds 16 input
// bytes with 16 independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? kCrcPoly ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// a·b mod P over GF(2) in the reflected bit order, where bit 31 is x^0.
std::uint32_t gf2_mul(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) p ^= b;
    b = (b & 1) ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return p;
}

// x^(8n) mod P: the operator that appends n zero bytes to a CRC register.
std::uint32_t x_pow_8n(std::uint64_t n) {
  std::uint32_t result = 1u << 31;  // x^0
  std::uint32_t square = 1u << 23;  // x^8, then x^16, x^32, ...
  for (; n != 0; n >>= 1) {
    if (n & 1) result = gf2_mul(square, result);
    square = gf2_mul(square, square);
  }
  return result;
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::string tag_name(std::uint32_t tag) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return s;
}

template <typename T>
void put_vec(SnapshotWriter& w, const std::vector<T>& v) {
  std::uint8_t* const p = w.put_records(v.size(), sizeof(T));
  if (!v.empty()) std::memcpy(p, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> get_vec(SnapshotReader& r) {
  const SnapshotReader::Records rec = r.get_records(sizeof(T));
  std::vector<T> v(rec.count);
  if (rec.count != 0) std::memcpy(v.data(), rec.data, rec.count * sizeof(T));
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; len >= 16; data += 16, len -= 16) {
    std::uint32_t w[4];
    std::memcpy(w, data, sizeof w);
    w[0] ^= c;
    c = t[15][w[0] & 0xffu] ^ t[14][(w[0] >> 8) & 0xffu] ^
        t[13][(w[0] >> 16) & 0xffu] ^ t[12][w[0] >> 24] ^
        t[11][w[1] & 0xffu] ^ t[10][(w[1] >> 8) & 0xffu] ^
        t[9][(w[1] >> 16) & 0xffu] ^ t[8][w[1] >> 24] ^
        t[7][w[2] & 0xffu] ^ t[6][(w[2] >> 8) & 0xffu] ^
        t[5][(w[2] >> 16) & 0xffu] ^ t[4][w[2] >> 24] ^
        t[3][w[3] & 0xffu] ^ t[2][(w[3] >> 8) & 0xffu] ^
        t[1][(w[3] >> 16) & 0xffu] ^ t[0][w[3] >> 24];
  }
  for (; len != 0; ++data, --len) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // The CRC register is linear over GF(2): running B's bytes through a
  // register holding crc(A) gives crc(B) plus crc(A) shifted by |B| zero
  // bytes. The pre/post inversions cancel because they are equal.
  return gf2_mul(x_pow_8n(len_b), crc_a) ^ crc_b;
}

// ---------------------------------------------------------------- writer

SnapshotWriter::SnapshotWriter(std::size_t expected_bytes) {
  buf_.reserve(std::max(expected_bytes, kMagic.size()));
  buf_.assign(kMagic.begin(), kMagic.end());
  body_crc_ = crc32(buf_.data(), buf_.size());
}

std::uint8_t* SnapshotWriter::grow(std::size_t n) {
  const std::size_t at = buf_.size();
  // Geometric growth that also leaves headroom after a block larger than
  // everything before it (a graph's adjacency array, say), so the few
  // words written after such a block do not copy it into a buffer twice
  // its size.
  if (buf_.capacity() - at < n)
    buf_.reserve(std::max(2 * buf_.capacity(), at + n + (at + n) / 8));
  buf_.resize(at + n);
  return buf_.data() + at;
}

void SnapshotWriter::raw_u32(std::uint32_t v) {
  std::memcpy(grow(sizeof v), &v, sizeof v);
}

void SnapshotWriter::raw_u64(std::uint64_t v) {
  std::memcpy(grow(sizeof v), &v, sizeof v);
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
  DV_CHECK_MSG(!in_section_ && !finished_, "begin_section misuse");
  section_start_ = buf_.size();
  raw_u32(tag);
  raw_u64(0);  // length, patched by end_section
  in_section_ = true;
}

void SnapshotWriter::end_section() {
  DV_CHECK_MSG(in_section_, "end_section without begin_section");
  deltav::Timer crc_timer;
  const std::size_t payload_off = section_start_ + 12;
  const std::uint64_t len = buf_.size() - payload_off;
  std::memcpy(buf_.data() + section_start_ + 4, &len, sizeof len);
  const std::size_t frame_len = buf_.size() - section_start_;
  const std::uint32_t crc = crc32(buf_.data() + section_start_, frame_len);
  raw_u32(crc);
  // Extend the file CRC over the frame and its CRC word without a second
  // pass over the payload.
  body_crc_ = crc32(buf_.data() + buf_.size() - 4, 4,
                    crc32_combine(body_crc_, crc, frame_len));
  crc_seconds_ += crc_timer.elapsed_seconds();
  in_section_ = false;
}

void SnapshotWriter::put_u8(std::uint8_t v) {
  DV_CHECK_MSG(in_section_, "put outside a section");
  buf_.push_back(v);
}

void SnapshotWriter::put_u32(std::uint32_t v) {
  DV_CHECK_MSG(in_section_, "put outside a section");
  raw_u32(v);
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  DV_CHECK_MSG(in_section_, "put outside a section");
  raw_u64(v);
}

void SnapshotWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void SnapshotWriter::put_value(const Value& v) {
  DV_CHECK_MSG(in_section_, "put outside a section");
  // The union's widest member: bools/ints round-trip through it exactly,
  // and float payloads keep their bit pattern (NaNs, -0.0).
  std::uint64_t bits;
  switch (v.type) {
    case Type::kBool: bits = v.b ? 1 : 0; break;
    case Type::kFloat: bits = std::bit_cast<std::uint64_t>(v.f); break;
    default: bits = static_cast<std::uint64_t>(v.i); break;
  }
  std::uint8_t* const p = grow(1 + sizeof bits);
  p[0] = static_cast<std::uint8_t>(v.type);
  std::memcpy(p + 1, &bits, sizeof bits);
}

void SnapshotWriter::put_string(const std::string& s) {
  std::uint8_t* const p = put_records(s.size(), 1);
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
}

std::uint8_t* SnapshotWriter::put_records(std::size_t count,
                                          std::size_t record_bytes) {
  put_u64(count);
  return grow(count * record_bytes);
}

void SnapshotWriter::put_u8_vec(const std::vector<std::uint8_t>& v) {
  put_vec(*this, v);
}

void SnapshotWriter::put_u32_vec(const std::vector<std::uint32_t>& v) {
  put_vec(*this, v);
}

void SnapshotWriter::put_u64_vec(const std::vector<std::uint64_t>& v) {
  put_vec(*this, v);
}

void SnapshotWriter::put_i32_vec(const std::vector<std::int32_t>& v) {
  put_vec(*this, v);
}

void SnapshotWriter::put_f64_vec(const std::vector<double>& v) {
  put_vec(*this, v);
}

void SnapshotWriter::finish() {
  DV_CHECK_MSG(!in_section_ && !finished_, "finish misuse");
  const std::uint64_t body = buf_.size();
  const std::uint32_t file_crc = body_crc_;
  begin_section(kSecEnd);
  put_u64(body);
  put_u32(file_crc);
  end_section();
  finished_ = true;
  if (obs::Collector* const col = obs::current()) {
    col->metrics.observe("persist.crc_seconds", crc_seconds_);
    col->metrics.shard(0).add(obs::Counter::kSnapshotBytesWritten,
                              buf_.size());
  }
}

void SnapshotWriter::write_file(const std::string& path) const {
  DV_CHECK_MSG(finished_, "write_file before finish()");
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    throw SnapshotError("cannot open '" + tmp +
                        "' for writing: " + std::strerror(errno));
  const std::size_t n = std::fwrite(buf_.data(), 1, buf_.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (n != buf_.size() || !flushed) {
    std::remove(tmp.c_str());
    throw SnapshotError("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot rename '" + tmp + "' to '" + path +
                        "': " + std::strerror(errno));
  }
}

// ---------------------------------------------------------------- reader

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes)
    : buf_(std::move(bytes)) {
  obs::Collector* const col = obs::current();
  deltav::Timer crc_timer;
  if (buf_.size() < kMagic.size() ||
      !std::equal(kMagic.begin(), kMagic.end(), buf_.begin()))
    throw SnapshotError("not a DVSNAP01 snapshot (bad magic)");

  // Walk and verify every frame; the end marker must be the final frame
  // and must account for every byte before it. The file CRC of the bytes
  // walked so far is extended frame by frame from the section CRCs, so
  // the end marker's check equals a full second pass without making one.
  std::size_t off = kMagic.size();
  std::uint32_t body_crc = crc32(buf_.data(), off);
  bool saw_end = false;
  while (off < buf_.size()) {
    if (saw_end)
      throw SnapshotError("trailing bytes after the end section");
    if (buf_.size() - off < 16)
      throw SnapshotError("truncated snapshot: section header cut short");
    const std::uint32_t tag = load_u32(buf_.data() + off);
    const std::uint64_t len = load_u64(buf_.data() + off + 4);
    if (len > buf_.size() - off - 16)
      throw SnapshotError("truncated snapshot: section '" + tag_name(tag) +
                          "' payload cut short");
    const std::size_t payload_off = off + 12;
    const std::size_t frame_len = 12 + static_cast<std::size_t>(len);
    const std::uint32_t want = crc32(buf_.data() + off, frame_len);
    const std::uint8_t* const crc_word = buf_.data() + off + frame_len;
    if (want != load_u32(crc_word))
      throw SnapshotError("corrupted snapshot: CRC mismatch in section '" +
                          tag_name(tag) + "'");
    if (tag == kSecEnd) {
      if (len != 12)
        throw SnapshotError("corrupted snapshot: malformed end section");
      if (load_u64(buf_.data() + payload_off) != off)
        throw SnapshotError("corrupted snapshot: end section size mismatch");
      if (load_u32(buf_.data() + payload_off + 8) != body_crc)
        throw SnapshotError("corrupted snapshot: file CRC mismatch");
      saw_end = true;
    } else {
      sections_.push_back(
          Section{tag, payload_off, static_cast<std::size_t>(len)});
      body_crc =
          crc32(crc_word, 4, crc32_combine(body_crc, want, frame_len));
    }
    off += frame_len + 4;
  }
  if (!saw_end)
    throw SnapshotError("truncated snapshot: end section missing");
  if (col) {
    // The frame walk above is dominated by CRC verification.
    col->metrics.observe("persist.crc_seconds",
                         crc_timer.elapsed_seconds());
    col->metrics.shard(0).add(obs::Counter::kSnapshotBytesRead,
                              buf_.size());
  }
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  return SnapshotReader(read_file_bytes(path));
}

void SnapshotReader::open(std::uint32_t tag) {
  DV_CHECK_MSG(!in_section_, "open() with a section already open");
  if (next_section_ >= sections_.size())
    throw SnapshotError("snapshot is missing section '" + tag_name(tag) +
                        "'");
  const Section& s = sections_[next_section_];
  if (s.tag != tag)
    throw SnapshotError("snapshot section order mismatch: expected '" +
                        tag_name(tag) + "', found '" + tag_name(s.tag) +
                        "' (incompatible snapshot version?)");
  cur_ = s.payload_off;
  cur_end_ = s.payload_off + s.payload_len;
  in_section_ = true;
}

void SnapshotReader::close() {
  DV_CHECK_MSG(in_section_, "close() without open()");
  if (cur_ != cur_end_)
    throw SnapshotError(
        "snapshot section '" + tag_name(sections_[next_section_].tag) +
        "' has trailing bytes (incompatible snapshot version?)");
  ++next_section_;
  in_section_ = false;
}

void SnapshotReader::need(std::size_t n) const {
  DV_CHECK_MSG(in_section_, "get outside a section");
  if (cur_end_ - cur_ < n)
    throw SnapshotError(
        "snapshot section '" + tag_name(sections_[next_section_].tag) +
        "' ends mid-field (incompatible snapshot version?)");
}

std::uint8_t SnapshotReader::get_u8() {
  need(1);
  return buf_[cur_++];
}

std::uint32_t SnapshotReader::get_u32() {
  need(4);
  const std::uint32_t v = load_u32(buf_.data() + cur_);
  cur_ += 4;
  return v;
}

std::uint64_t SnapshotReader::get_u64() {
  need(8);
  const std::uint64_t v = load_u64(buf_.data() + cur_);
  cur_ += 8;
  return v;
}

double SnapshotReader::get_f64() {
  return std::bit_cast<double>(get_u64());
}

Value SnapshotReader::get_value() {
  need(9);
  const std::uint8_t t = buf_[cur_];
  const std::uint64_t bits = load_u64(buf_.data() + cur_ + 1);
  cur_ += 9;
  switch (t) {
    case static_cast<std::uint8_t>(Type::kInt):
      return Value::of_int(static_cast<std::int64_t>(bits));
    case static_cast<std::uint8_t>(Type::kFloat):
      return Value::of_float(std::bit_cast<double>(bits));
    case static_cast<std::uint8_t>(Type::kBool):
      return Value::of_bool(bits != 0);
    default:
      throw SnapshotError("snapshot value has unknown type tag " +
                          std::to_string(t));
  }
}

std::string SnapshotReader::get_string() {
  const Records rec = get_records(1);
  return std::string(reinterpret_cast<const char*>(rec.data), rec.count);
}

std::size_t SnapshotReader::vec_len(std::size_t elem_bytes) {
  // Element count sanity before any allocation: a count that cannot fit in
  // the remaining payload (e.g. from a snapshot of a different version)
  // must throw rather than wrap the byte math or trigger a huge resize.
  const std::uint64_t n = get_u64();
  const std::size_t remaining = cur_end_ - cur_;
  if (n > remaining / elem_bytes)
    throw SnapshotError(
        "snapshot section '" + tag_name(sections_[next_section_].tag) +
        "' declares an oversized vector (incompatible snapshot version?)");
  return static_cast<std::size_t>(n);
}

SnapshotReader::Records SnapshotReader::get_records(
    std::size_t record_bytes) {
  const std::size_t n = vec_len(record_bytes);
  const Records rec{buf_.data() + cur_, n};
  cur_ += n * record_bytes;
  return rec;
}

std::vector<std::uint8_t> SnapshotReader::get_u8_vec() {
  return get_vec<std::uint8_t>(*this);
}

std::vector<std::uint32_t> SnapshotReader::get_u32_vec() {
  return get_vec<std::uint32_t>(*this);
}

std::vector<std::uint64_t> SnapshotReader::get_u64_vec() {
  return get_vec<std::uint64_t>(*this);
}

std::vector<std::int32_t> SnapshotReader::get_i32_vec() {
  return get_vec<std::int32_t>(*this);
}

std::vector<double> SnapshotReader::get_f64_vec() {
  return get_vec<double>(*this);
}

void SnapshotReader::finish() const {
  DV_CHECK_MSG(!in_section_, "finish() with a section open");
  if (next_section_ != sections_.size())
    throw SnapshotError("snapshot has unread sections (incompatible "
                        "snapshot version?)");
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw SnapshotError("cannot open snapshot '" + path +
                        "': " + std::strerror(errno));
  // One read sized from the file length; a stream whose length cannot be
  // probed (or a file that grew since) still arrives through the chunked
  // tail loop below.
  long size = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::max(std::ftell(f), 0L);
  std::rewind(f);
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  if (!buf.empty()) buf.resize(std::fread(buf.data(), 1, buf.size(), f));
  std::array<std::uint8_t, 1 << 16> chunk;
  std::size_t n;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
    buf.insert(buf.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(n));
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err)
    throw SnapshotError("read error on snapshot '" + path + "'");
  return buf;
}

}  // namespace deltav::dv::persist
