// Bounds-checked big-endian byte readers/writers for wire formats.
//
// All RTP/RTCP serialization in gso_net goes through these helpers so
// framing bugs surface as explicit failures instead of silent corruption.
#ifndef GSO_NET_BYTE_IO_H_
#define GSO_NET_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace gso::net {

class ByteWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void WriteU24(uint32_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 16));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void WriteU32(uint32_t v) {
    buf_.push_back(static_cast<uint8_t>(v >> 24));
    buf_.push_back(static_cast<uint8_t>(v >> 16));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
    buf_.push_back(static_cast<uint8_t>(v));
  }
  void WriteBytes(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void WriteString4(const char name[4]) {
    buf_.insert(buf_.end(), name, name + 4);
  }

  size_t size() const { return buf_.size(); }
  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  // Empties the writer but keeps its capacity, so a reused writer stops
  // allocating once it has seen its largest message.
  void Clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

// Writes into a buffer the caller has already sized to the exact length
// of what is written, so it neither allocates nor checks bounds.
class BufferWriter {
 public:
  explicit BufferWriter(uint8_t* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_[pos_++] = v; }
  void WriteU16(uint16_t v) {
    WriteU8(static_cast<uint8_t>(v >> 8));
    WriteU8(static_cast<uint8_t>(v));
  }
  void WriteU32(uint32_t v) {
    WriteU16(static_cast<uint16_t>(v >> 16));
    WriteU16(static_cast<uint16_t>(v));
  }

  size_t size() const { return pos_; }

 private:
  uint8_t* out_;
  size_t pos_ = 0;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(std::span<const uint8_t> bytes)
      : data_(bytes.data()), len_(bytes.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
  size_t position() const { return pos_; }

  uint8_t ReadU8() {
    if (!Check(1)) return 0;
    return data_[pos_++];
  }
  uint16_t ReadU16() {
    if (!Check(2)) return 0;
    uint16_t v = static_cast<uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  uint32_t ReadU24() {
    if (!Check(3)) return 0;
    uint32_t v = static_cast<uint32_t>(data_[pos_]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
                 static_cast<uint32_t>(data_[pos_ + 2]);
    pos_ += 3;
    return v;
  }
  uint32_t ReadU32() {
    if (!Check(4)) return 0;
    uint32_t v = static_cast<uint32_t>(data_[pos_]) << 24 |
                 static_cast<uint32_t>(data_[pos_ + 1]) << 16 |
                 static_cast<uint32_t>(data_[pos_ + 2]) << 8 |
                 static_cast<uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  void ReadBytes(uint8_t* out, size_t len) {
    // len == 0 must be a no-op before touching `out`: an empty vector's
    // data() is null, and memcpy/memset(null, ..., 0) is still UB.
    if (len == 0) return;
    if (!Check(len)) {
      std::memset(out, 0, len);
      return;
    }
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }
  std::string ReadString4() {
    char name[4] = {};
    ReadBytes(reinterpret_cast<uint8_t*>(name), 4);
    return std::string(name, 4);
  }
  void Skip(size_t len) { Check(len) ? (void)(pos_ += len) : (void)0; }

 private:
  bool Check(size_t need) {
    if (!ok_ || len_ - pos_ < need) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace gso::net

#endif  // GSO_NET_BYTE_IO_H_
