// Typed state serialization for transparent upgrades (Section 4): "the
// running version of Snap serializes all state to an intermediate format
// stored in memory shared with a new version".
//
// The format is a flat, tagged, little-endian byte stream. Tags catch
// reader/writer schema skew immediately (a deliberate property: upgrades
// across incompatible state layouts must fail loudly in testing, not
// corrupt engines in production).
#ifndef SRC_SNAP_STATE_CODEC_H_
#define SRC_SNAP_STATE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/util/logging.h"
#include "src/util/status.h"

namespace snap {

class StateWriter {
 public:
  void PutU64(uint64_t v) { PutScalar(Tag::kU64, v); }
  void PutI64(int64_t v) { PutScalar(Tag::kI64, v); }
  void PutU32(uint32_t v) { PutScalar(Tag::kU32, v); }
  void PutU16(uint16_t v) { PutScalar(Tag::kU16, v); }
  void PutU8(uint8_t v) { PutScalar(Tag::kU8, v); }
  void PutBool(bool v) { PutScalar(Tag::kBool, static_cast<uint8_t>(v)); }
  void PutDouble(double v) { PutScalar(Tag::kDouble, v); }

  void PutString(const std::string& s) {
    PutTag(Tag::kString);
    PutRaw(static_cast<uint32_t>(s.size()));
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  void PutBytes(std::span<const uint8_t> b) {
    PutTag(Tag::kBytes);
    PutRaw(static_cast<uint32_t>(b.size()));
    buffer_.insert(buffer_.end(), b.begin(), b.end());
  }

  // Marks the start of a named section (aids debugging and enforces
  // structural agreement between serializer and deserializer).
  void BeginSection(const std::string& name) {
    PutTag(Tag::kSection);
    PutRaw(static_cast<uint32_t>(name.size()));
    buffer_.insert(buffer_.end(), name.begin(), name.end());
  }

  const std::vector<uint8_t>& buffer() const { return buffer_; }
  size_t size_bytes() const { return buffer_.size(); }

 private:
  friend class StateReader;

  enum class Tag : uint8_t {
    kU64 = 1,
    kI64,
    kU32,
    kU16,
    kU8,
    kBool,
    kDouble,
    kString,
    kBytes,
    kSection,
  };

  void PutTag(Tag t) { buffer_.push_back(static_cast<uint8_t>(t)); }

  template <typename T>
  void PutRaw(T v) {
    size_t pos = buffer_.size();
    buffer_.resize(pos + sizeof(T));
    std::memcpy(buffer_.data() + pos, &v, sizeof(T));
  }

  template <typename T>
  void PutScalar(Tag t, T v) {
    PutTag(t);
    PutRaw(v);
  }

  std::vector<uint8_t> buffer_;
};

class StateReader {
 public:
  explicit StateReader(const std::vector<uint8_t>& buffer)
      : buffer_(buffer) {}

  uint64_t GetU64() { return GetScalar<uint64_t>(StateWriter::Tag::kU64); }
  int64_t GetI64() { return GetScalar<int64_t>(StateWriter::Tag::kI64); }
  uint32_t GetU32() { return GetScalar<uint32_t>(StateWriter::Tag::kU32); }
  uint16_t GetU16() { return GetScalar<uint16_t>(StateWriter::Tag::kU16); }
  uint8_t GetU8() { return GetScalar<uint8_t>(StateWriter::Tag::kU8); }
  bool GetBool() {
    return GetScalar<uint8_t>(StateWriter::Tag::kBool) != 0;
  }
  double GetDouble() {
    return GetScalar<double>(StateWriter::Tag::kDouble);
  }

  std::string GetString() {
    ExpectTag(StateWriter::Tag::kString);
    uint32_t len = GetRaw<uint32_t>();
    std::string s(reinterpret_cast<const char*>(Cursor(len)), len);
    pos_ += len;
    return s;
  }

  std::vector<uint8_t> GetBytes() {
    ExpectTag(StateWriter::Tag::kBytes);
    uint32_t len = GetRaw<uint32_t>();
    std::vector<uint8_t> b(Cursor(len), Cursor(len) + len);
    pos_ += len;
    return b;
  }

  void ExpectSection(const std::string& name) {
    ExpectTag(StateWriter::Tag::kSection);
    uint32_t len = GetRaw<uint32_t>();
    std::string s(reinterpret_cast<const char*>(Cursor(len)), len);
    pos_ += len;
    SNAP_CHECK_EQ(s, name) << "state section mismatch";
  }

  bool AtEnd() const { return pos_ == buffer_.size(); }

 private:
  const uint8_t* Cursor(size_t need) const {
    SNAP_CHECK_LE(pos_ + need, buffer_.size()) << "state underrun";
    return buffer_.data() + pos_;
  }

  void ExpectTag(StateWriter::Tag expected) {
    uint8_t t = *Cursor(1);
    ++pos_;
    SNAP_CHECK_EQ(static_cast<int>(t), static_cast<int>(expected))
        << "state tag mismatch at offset " << pos_ - 1;
  }

  template <typename T>
  T GetRaw() {
    T v;
    std::memcpy(&v, Cursor(sizeof(T)), sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  T GetScalar(StateWriter::Tag tag) {
    ExpectTag(tag);
    return GetRaw<T>();
  }

  const std::vector<uint8_t>& buffer_;
  size_t pos_ = 0;
};

}  // namespace snap

#endif  // SRC_SNAP_STATE_CODEC_H_
