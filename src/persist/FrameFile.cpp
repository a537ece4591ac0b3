//===- persist/FrameFile.cpp ----------------------------------------------===//

#include "persist/FrameFile.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

namespace fs = std::filesystem;

using namespace prdnn;
using namespace prdnn::persist;

namespace {

constexpr const char kTempPrefix[] = ".tmp-";

/// Process-wide, not per caller: two stores or registries in one
/// process must never write the same temp file.
std::atomic<std::uint64_t> NextTempId{0};

} // namespace

PublishResult prdnn::persist::publishFile(
    const std::string &Path, const std::vector<std::uint8_t> &Bytes,
    bool Replace) {
  const fs::path Target(Path);
  std::error_code Ec;
  if (!Replace && fs::exists(Target, Ec))
    return PublishResult::Exists;
  fs::create_directories(Target.parent_path(), Ec);

  // In the target's directory, so the rename stays on one filesystem.
  const fs::path Temp =
      Target.parent_path() /
      (kTempPrefix + std::to_string(::getpid()) + "-" +
       std::to_string(NextTempId.fetch_add(1, std::memory_order_relaxed)));
  std::ofstream Os(Temp, std::ios::binary | std::ios::trunc);
  Os.write(reinterpret_cast<const char *>(Bytes.data()),
           static_cast<std::streamsize>(Bytes.size()));
  Os.close();
  if (Os)
    fs::rename(Temp, Target, Ec);
  if (Os && !Ec)
    return PublishResult::Published;
  fs::remove(Temp, Ec);
  // A concurrent publisher may have renamed first.
  return !Replace && fs::exists(Target, Ec) ? PublishResult::Exists
                                            : PublishResult::IoError;
}

bool prdnn::persist::isTempFileName(const std::string &FileName) {
  return FileName.compare(0, sizeof(kTempPrefix) - 1, kTempPrefix) == 0;
}

FrameFile prdnn::persist::readFrameFile(const std::string &Path,
                                        std::uint8_t BlobKind) {
  FrameFile File;
  std::ifstream Is(Path, std::ios::binary | std::ios::ate);
  if (!Is)
    return File;
  File.Found = true;
  // A short or failed read falls through to unframe(), which rejects it.
  const std::streamsize Size = Is.tellg();
  File.Bytes.resize(Size > 0 ? static_cast<std::size_t>(Size) : 0);
  Is.seekg(0);
  if (!File.Bytes.empty() &&
      !Is.read(reinterpret_cast<char *>(File.Bytes.data()), Size))
    File.Bytes.resize(static_cast<std::size_t>(Is.gcount()));

  FrameView View;
  File.Error = unframe(File.Bytes.data(), File.Bytes.size(), View);
  if (File.Error == CodecError::None && View.BlobKind != BlobKind)
    File.Error = CodecError::Corrupt;
  if (File.Error == CodecError::None) {
    File.PayloadOffset =
        static_cast<std::size_t>(View.Payload - File.Bytes.data());
    File.PayloadSize = View.PayloadSize;
  }
  return File;
}
