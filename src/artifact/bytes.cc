#include "artifact/bytes.h"

#include <array>
#include <cstring>

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

inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  static const CrcTables kT = MakeCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  // Eight bytes per step: the first four fold into the running CRC, and
  // each byte's table accounts for the bytes that follow it in the step.
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
  return crc ^ 0xFFFFFFFFu;
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

void ByteWriter::F32Vec(const std::vector<float>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (float x : v) F32(x);
}

void ByteWriter::F64Vec(const std::vector<double>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (double x : v) F64(x);
}

void ByteWriter::I32Vec(const std::vector<int>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (int x : v) I32(x);
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

std::vector<float> ByteReader::F32Vec() {
  uint32_t n = Count(4);
  std::vector<float> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n && ok(); ++i) v.push_back(F32());
  if (!ok()) v.clear();
  return v;
}

std::vector<double> ByteReader::F64Vec() {
  uint32_t n = Count(8);
  std::vector<double> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n && ok(); ++i) v.push_back(F64());
  if (!ok()) v.clear();
  return v;
}

std::vector<int> ByteReader::I32Vec() {
  uint32_t n = Count(4);
  std::vector<int> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n && ok(); ++i) v.push_back(I32());
  if (!ok()) v.clear();
  return v;
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
