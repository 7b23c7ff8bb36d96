#ifndef SERD_ARTIFACT_BYTES_H_
#define SERD_ARTIFACT_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace serd::artifact {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `data`. Every artifact
/// section carries one so that a flipped bit anywhere in a payload is
/// detected before any value is interpreted. Where the host has PCLMULQDQ
/// (cpu::X86().pclmul), inputs of 64 bytes and more fold 16-byte blocks by
/// carry-less multiplication (Intel, "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", 2009) and finish their last
/// bytes by table; elsewhere this is ReferenceCrc32. Both give the same
/// CRC for every input.
uint32_t Crc32(const void* data, size_t size);
inline uint32_t Crc32(std::string_view data) {
  return Crc32(data.data(), data.size());
}

/// CRC-32 by slice-by-8 tables: the reference and the fallback of Crc32.
uint32_t ReferenceCrc32(const void* data, size_t size);

/// Little-endian binary encoder for artifact payloads. All multi-byte
/// values are written byte-by-byte, so the emitted bytes are identical on
/// any host. Floats/doubles are written as their raw IEEE-754 bits, which
/// makes save -> load -> save byte-identical (no text round-trip loss).
class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F32(float v);
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }

  /// u32 length + raw bytes.
  void Str(std::string_view s);
  /// u32 count + strings.
  void StrVec(const std::vector<std::string>& v);
  /// u32 count + raw IEEE bits (one block copy on little-endian hosts).
  void F32Vec(const std::vector<float>& v);
  void F64Vec(const std::vector<double>& v);
  void I32Vec(const std::vector<int>& v);
  void I64Vec(const std::vector<long>& v);
  /// u32 count + one byte per element (std::vector<bool> has no data()).
  void BoolVec(const std::vector<bool>& v);

  const std::string& bytes() const { return out_; }

 private:
  /// u32 count, then the elements' bytes as one block on little-endian
  /// hosts and one element at a time through `put` elsewhere.
  template <typename T, typename Put>
  void Block(const std::vector<T>& v, const Put& put);

  std::string out_;
};

/// Bounds-checked decoder over an artifact payload. The reader is
/// "sticky": the first failed read records a Status and every subsequent
/// read returns a zero value, so decoding code can read a whole record
/// linearly and check status() once — no partial value is ever interpreted
/// from out-of-bounds memory, and malformed element counts are rejected
/// against the bytes actually remaining (a corrupted count can never drive
/// a multi-gigabyte allocation or an unbounded loop).
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  float F32();
  double F64();
  bool Bool() { return U8() != 0; }

  std::string Str();
  std::vector<std::string> StrVec();
  /// One length check and, on little-endian hosts, one block copy per
  /// vector; a truncated vector fails Count's check.
  std::vector<float> F32Vec();
  std::vector<double> F64Vec();
  std::vector<int> I32Vec();
  std::vector<long> I64Vec();
  std::vector<bool> BoolVec();

  /// Reads a u32 element count and validates `count * min_elem_bytes`
  /// against the remaining payload; fails the reader (returning 0) when
  /// the count cannot possibly be satisfied.
  uint32_t Count(size_t min_elem_bytes);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return data_.size() - pos_; }

  /// Marks the reader failed (first failure wins).
  void Fail(std::string message);

  /// OK iff no read failed and the payload was fully consumed.
  Status Finish() const;

 private:
  /// True when `n` more bytes are available; fails the reader otherwise.
  bool Need(size_t n);

  /// A counted vector of 4- or 8-byte elements: copied as one block on
  /// little-endian hosts, read one element at a time through `get`
  /// elsewhere.
  template <typename T, typename Get>
  std::vector<T> Block(const Get& get);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace serd::artifact

#endif  // SERD_ARTIFACT_BYTES_H_
