#include "artifact/bytes.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/cpu.h"

#if SERD_X86_DISPATCH
#include <immintrin.h>
#endif

namespace serd::artifact {

namespace {

/// Slice-by-8 tables: kCrcTables[0] is the bytewise table of the
/// reflected polynomial, and kCrcTables[k][b] is the CRC update of byte b
/// followed by k zero bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// On a little-endian host an element's bytes in memory are its artifact
/// bytes, so a whole vector moves as one block.
constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;
static_assert(sizeof(int) == 4, "I32Vec moves ints as 4-byte blocks");

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// The running (inverted) CRC state after `size` more bytes, eight per
/// step: the first four fold into the running CRC, and each byte's table
/// accounts for the bytes that follow it in the step.
uint32_t SliceBy8(uint32_t crc, const unsigned char* p, size_t size) {
  static const CrcTables kT = MakeCrcTables();
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^
          kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
          kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = kT[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if SERD_X86_DISPATCH
// The carry-less multiplication clone. Its constants are the white
// paper's for the bit-reflected polynomial: each x^n mod P(x), bit-reflected
// and shifted left by one (33 bits), so that a product of a 64-bit lane
// and one lands aligned for the next XOR.
#pragma GCC push_options
#pragma GCC target("pclmul")
namespace pclmul {

constexpr long long kFold512Lo = 0x154442bd4;  // k1: folds by 4 x 128 bits
constexpr long long kFold512Hi = 0x1c6e41596;  // k2
constexpr long long kFold128Lo = 0x1751997d0;  // k3: folds by 128 bits
constexpr long long kFold128Hi = 0x0ccaa009e;  // k4
constexpr long long kFold64 = 0x163cd6124;     // k5: 64 to 32 bits
constexpr long long kPoly = 0x1db710641;       // P(x)', bit-reflected
constexpr long long kMu = 0x1f7011641;         // floor(x^64 / P(x))'

inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x's 128 bits carried 128 (or 512) bits further, plus the next block.
inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                    _mm_clmulepi64_si128(x, k, 0x11)),
      next);
}

/// SliceBy8(crc, p, size) for size >= 64 and a multiple of 16: four
/// 128-bit lanes fold 64 bytes per step, then fold into one lane, which
/// takes the remaining 16-byte blocks; that lane is reduced to 64 and then
/// 32 bits, the last by Barrett reduction.
uint32_t Blocks(uint32_t crc, const unsigned char* p, size_t size) {
  __m128i x0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  size -= 64;
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k512, Load(p));
    x1 = Fold(x1, k512, Load(p + 16));
    x2 = Fold(x2, k512, Load(p + 32));
    x3 = Fold(x3, k512, Load(p + 48));
  }
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  for (; size >= 16; p += 16, size -= 16) x0 = Fold(x0, k128, Load(p));

  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  // 128 to 64 bits: the low half times k4 into the high half.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x0, 8),
                            _mm_clmulepi64_si128(x0, k128, 0x10));
  // 64 to 32 bits: the low 32 bits times k5 into the rest.
  x = _mm_xor_si128(
      _mm_srli_si128(x, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                           _mm_set_epi64x(0, kFold64), 0x00));
  // Barrett: q = (low 32 bits * mu) mod x^32, then x ^= q * P.
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  x = _mm_xor_si128(x, q);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

}  // namespace pclmul
#pragma GCC pop_options
#endif  // SERD_X86_DISPATCH

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#if SERD_X86_DISPATCH
  if (size >= 64 && cpu::X86().pclmul) {
    const size_t blocks = size & ~size_t{15};
    crc = pclmul::Blocks(crc, p, blocks);
    p += blocks;
    size -= blocks;
  }
#endif
  return SliceBy8(crc, p, size) ^ 0xFFFFFFFFu;
}

uint32_t ReferenceCrc32(const void* data, size_t size) {
  return SliceBy8(0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                  size) ^
         0xFFFFFFFFu;
}

// ----------------------------------------------------------- ByteWriter

void ByteWriter::U32(uint32_t v) {
  out_.push_back(static_cast<char>(v & 0xFF));
  out_.push_back(static_cast<char>((v >> 8) & 0xFF));
  out_.push_back(static_cast<char>((v >> 16) & 0xFF));
  out_.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void ByteWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
  U32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::F32(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U32(bits);
}

void ByteWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void ByteWriter::StrVec(const std::vector<std::string>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (const auto& s : v) Str(s);
}

template <typename T, typename Put>
void ByteWriter::Block(const std::vector<T>& v, const Put& put) {
  U32(static_cast<uint32_t>(v.size()));
  if constexpr (kLittleEndianHost) {
    out_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  } else {
    for (T x : v) put(x);
  }
}

void ByteWriter::F32Vec(const std::vector<float>& v) {
  Block(v, [this](float x) { F32(x); });
}

void ByteWriter::F64Vec(const std::vector<double>& v) {
  Block(v, [this](double x) { F64(x); });
}

void ByteWriter::I32Vec(const std::vector<int>& v) {
  Block(v, [this](int x) { I32(x); });
}

void ByteWriter::I64Vec(const std::vector<long>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (long x : v) I64(static_cast<int64_t>(x));
}

void ByteWriter::BoolVec(const std::vector<bool>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (bool b : v) Bool(b);
}

// ----------------------------------------------------------- ByteReader

bool ByteReader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (n > remaining()) {
    Fail("payload truncated: need " + std::to_string(n) + " bytes, " +
         std::to_string(remaining()) + " remain");
    return false;
  }
  return true;
}

void ByteReader::Fail(std::string message) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument("artifact: " + std::move(message));
  }
}

uint8_t ByteReader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t ByteReader::U32() {
  if (!Need(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

uint64_t ByteReader::U64() {
  uint64_t lo = U32();
  uint64_t hi = U32();
  return lo | (hi << 32);
}

float ByteReader::F32() {
  uint32_t bits = U32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint32_t ByteReader::Count(size_t min_elem_bytes) {
  uint32_t n = U32();
  if (!status_.ok()) return 0;
  if (min_elem_bytes > 0 &&
      static_cast<uint64_t>(n) * min_elem_bytes > remaining()) {
    Fail("element count " + std::to_string(n) +
         " exceeds remaining payload (" + std::to_string(remaining()) +
         " bytes)");
    return 0;
  }
  return n;
}

std::string ByteReader::Str() {
  uint32_t n = Count(1);
  if (!Need(n)) return {};
  std::string s(data_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::vector<std::string> ByteReader::StrVec() {
  uint32_t n = Count(4);  // each string carries at least a length prefix
  std::vector<std::string> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n && ok(); ++i) v.push_back(Str());
  if (!ok()) v.clear();
  return v;
}

template <typename T, typename Get>
std::vector<T> ByteReader::Block(const Get& get) {
  // Count checks the whole block against the remaining payload, so no
  // element read below can fail.
  const uint32_t n = Count(sizeof(T));
  if (!ok()) return {};
  std::vector<T> v(n);
  if constexpr (kLittleEndianHost) {
    std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  } else {
    for (T& x : v) x = get();
  }
  return v;
}

std::vector<float> ByteReader::F32Vec() {
  return Block<float>([this] { return F32(); });
}

std::vector<double> ByteReader::F64Vec() {
  return Block<double>([this] { return F64(); });
}

std::vector<int> ByteReader::I32Vec() {
  return Block<int>([this] { return static_cast<int>(I32()); });
}

std::vector<long> ByteReader::I64Vec() {
  uint32_t n = Count(8);
  std::vector<long> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n && ok(); ++i) {
    v.push_back(static_cast<long>(I64()));
  }
  if (!ok()) v.clear();
  return v;
}

std::vector<bool> ByteReader::BoolVec() {
  uint32_t n = Count(1);
  std::vector<bool> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n && ok(); ++i) v.push_back(Bool());
  if (!ok()) v.clear();
  return v;
}

Status ByteReader::Finish() const {
  if (!status_.ok()) return status_;
  if (remaining() != 0) {
    return Status::InvalidArgument(
        "artifact: " + std::to_string(remaining()) +
        " trailing bytes after payload");
  }
  return Status::OK();
}

}  // namespace serd::artifact
