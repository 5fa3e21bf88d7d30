#include "mrt/mrt.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

namespace gill::mrt {

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t value) {
  out.push_back(value);
}
void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 24));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Bounds-checked big-endian cursor.
class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> data, std::size_t offset)
      : data_(data), offset_(offset) {}

  bool read_u8(std::uint8_t& value) {
    if (offset_ + 1 > data_.size()) return false;
    value = data_[offset_++];
    return true;
  }
  bool read_u16(std::uint16_t& value) {
    if (offset_ + 2 > data_.size()) return false;
    value = static_cast<std::uint16_t>((data_[offset_] << 8) |
                                       data_[offset_ + 1]);
    offset_ += 2;
    return true;
  }
  bool read_u32(std::uint32_t& value) {
    if (offset_ + 4 > data_.size()) return false;
    value = (static_cast<std::uint32_t>(data_[offset_]) << 24) |
            (static_cast<std::uint32_t>(data_[offset_ + 1]) << 16) |
            (static_cast<std::uint32_t>(data_[offset_ + 2]) << 8) |
            static_cast<std::uint32_t>(data_[offset_ + 3]);
    offset_ += 4;
    return true;
  }
  bool read_bytes(std::uint8_t* out, std::size_t n) {
    if (offset_ + n > data_.size()) return false;
    std::memcpy(out, data_.data() + offset_, n);
    offset_ += n;
    return true;
  }
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_;
};

void put_prefix(std::vector<std::uint8_t>& out, const net::Prefix& prefix) {
  put_u8(out, prefix.family() == net::Family::v4 ? 1 : 2);  // AFI
  put_u8(out, static_cast<std::uint8_t>(prefix.length()));
  const std::size_t bytes = (prefix.length() + 7) / 8;
  for (std::size_t i = 0; i < bytes; ++i) {
    put_u8(out, prefix.address().bytes()[i]);
  }
}

bool read_prefix(Cursor& cursor, net::Prefix& prefix) {
  std::uint8_t afi = 0;
  std::uint8_t length = 0;
  if (!cursor.read_u8(afi) || !cursor.read_u8(length)) return false;
  if (afi != 1 && afi != 2) return false;
  const unsigned max_length = afi == 1 ? 32 : 128;
  if (length > max_length) return false;
  std::array<std::uint8_t, 16> bytes{};
  const std::size_t count = (length + 7) / 8;
  if (!cursor.read_bytes(bytes.data(), count)) return false;
  const net::IpAddress address =
      afi == 1 ? net::IpAddress::v4(
                     (static_cast<std::uint32_t>(bytes[0]) << 24) |
                     (static_cast<std::uint32_t>(bytes[1]) << 16) |
                     (static_cast<std::uint32_t>(bytes[2]) << 8) | bytes[3])
               : net::IpAddress::v6(bytes);
  prefix = net::Prefix(address, length);
  return true;
}

}  // namespace

void Writer::write_record(RecordType type, std::uint16_t subtype,
                          const Update& update) {
  // RFC 6396 common header; the body is written in place and its length
  // patched in afterwards.
  put_u32(buffer_, static_cast<std::uint32_t>(update.time));
  put_u16(buffer_, static_cast<std::uint16_t>(type));
  put_u16(buffer_, subtype);
  const std::size_t length_at = buffer_.size();
  put_u32(buffer_, 0);
  const std::size_t body_at = buffer_.size();
  put_u32(buffer_, update.vp);
  put_u32(buffer_, update.path.empty() ? 0 : update.path.first());  // peer AS
  put_u8(buffer_, update.withdrawal ? 1 : 0);
  put_prefix(buffer_, update.prefix);
  put_u16(buffer_, static_cast<std::uint16_t>(update.path.size()));
  for (const bgp::AsNumber hop : update.path.hops()) put_u32(buffer_, hop);
  put_u16(buffer_, static_cast<std::uint16_t>(update.communities.size()));
  for (const bgp::Community community : update.communities) {
    put_u32(buffer_, community.packed());
  }
  const auto body_size = static_cast<std::uint32_t>(buffer_.size() - body_at);
  buffer_[length_at] = static_cast<std::uint8_t>(body_size >> 24);
  buffer_[length_at + 1] = static_cast<std::uint8_t>(body_size >> 16);
  buffer_[length_at + 2] = static_cast<std::uint8_t>(body_size >> 8);
  buffer_[length_at + 3] = static_cast<std::uint8_t>(body_size);
  ++records_;
}

void Writer::write_update(const Update& update) {
  write_record(RecordType::kBgp4mp,
               static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4), update);
}

void Writer::write_rib_entry(const Update& entry) {
  write_record(RecordType::kTableDumpV2,
               static_cast<std::uint16_t>(TableDumpSubtype::kRibGeneric),
               entry);
}

std::vector<std::uint8_t> Writer::release() {
  std::vector<std::uint8_t> bytes = std::move(buffer_);
  buffer_.clear();
  buffer_.reserve(bytes.capacity());
  return bytes;
}

bool Writer::save(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) return false;
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file);
  std::fclose(file);
  return written == buffer_.size();
}

std::optional<Reader::Record> Reader::next() {
  if (!ok_ || done()) return std::nullopt;
  Cursor header(data_, offset_);
  std::uint32_t timestamp = 0;
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::uint32_t length = 0;
  if (!header.read_u32(timestamp) || !header.read_u16(type) ||
      !header.read_u16(subtype) || !header.read_u32(length)) {
    ok_ = false;
    return std::nullopt;
  }
  const std::size_t body_start = header.offset();
  if (body_start + length > data_.size()) {
    ok_ = false;
    return std::nullopt;
  }

  Cursor body(data_.subspan(0, body_start + length), body_start);
  Record record;
  record.type = static_cast<RecordType>(type);
  record.subtype = subtype;
  record.update.time = timestamp;

  std::uint32_t vp = 0;
  std::uint32_t peer = 0;
  std::uint8_t withdrawal = 0;
  if (!body.read_u32(vp) || !body.read_u32(peer) ||
      !body.read_u8(withdrawal) || !read_prefix(body, record.update.prefix)) {
    ok_ = false;
    return std::nullopt;
  }
  record.update.vp = vp;
  record.update.withdrawal = withdrawal != 0;
  std::uint16_t hops = 0;
  if (!body.read_u16(hops)) {
    ok_ = false;
    return std::nullopt;
  }
  std::vector<bgp::AsNumber> path(hops);
  for (auto& hop : path) {
    if (!body.read_u32(hop)) {
      ok_ = false;
      return std::nullopt;
    }
  }
  record.update.path = bgp::AsPath(std::move(path));
  std::uint16_t communities = 0;
  if (!body.read_u16(communities)) {
    ok_ = false;
    return std::nullopt;
  }
  for (std::uint16_t i = 0; i < communities; ++i) {
    std::uint32_t packed = 0;
    if (!body.read_u32(packed)) {
      ok_ = false;
      return std::nullopt;
    }
    record.update.communities.push_back(bgp::Community::from_packed(packed));
  }

  offset_ = body_start + length;
  return record;
}

bool write_stream(const UpdateStream& stream, const std::string& path) {
  Writer writer;
  for (const Update& update : stream) writer.write_update(update);
  return writer.save(path);
}

std::optional<UpdateStream> read_stream(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return std::nullopt;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::uint8_t> data(size > 0 ? static_cast<std::size_t>(size)
                                          : 0);
  const std::size_t read = std::fread(data.data(), 1, data.size(), file);
  std::fclose(file);
  if (read != data.size()) return std::nullopt;
  return decode_stream(data);
}

std::vector<std::uint8_t> encode_stream(const UpdateStream& stream) {
  Writer writer;
  for (const Update& update : stream) writer.write_update(update);
  return writer.buffer();
}

std::optional<UpdateStream> decode_stream(
    std::span<const std::uint8_t> data) {
  Reader reader(data);
  UpdateStream stream;
  while (auto record = reader.next()) {
    stream.push(std::move(record->update));
  }
  if (!reader.ok()) return std::nullopt;
  return stream;
}

}  // namespace gill::mrt
