//===- persist/FrameFile.h - atomic whole-file publication -----*- C++ -*-===//
///
/// \file
/// The one path by which codec frames reach and leave disk: artifact
/// store entries, model registry entries and binary network files. See
/// README.md, "Publication and reading".
///
//===----------------------------------------------------------------------===//

#ifndef PRDNN_PERSIST_FRAMEFILE_H
#define PRDNN_PERSIST_FRAMEFILE_H

#include "persist/Codec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace prdnn {
namespace persist {

enum class PublishResult : std::uint8_t { Published, Exists, IoError };

/// Writes \p Bytes to \p Path all at once: a temp file in the target's
/// directory (created if absent), then rename(). Unless \p Replace, an
/// existing target is kept (Exists). IoError when the temp file cannot
/// be written or renamed.
PublishResult publishFile(const std::string &Path,
                          const std::vector<std::uint8_t> &Bytes,
                          bool Replace = false);

/// Whether \p FileName (no directory part) is a publishFile() temp file.
bool isTempFileName(const std::string &FileName);

/// A frame file as readFrameFile() found it.
struct FrameFile {
  bool Found = false; ///< the file could be opened
  CodecError Error = CodecError::Truncated;
  std::vector<std::uint8_t> Bytes;
  std::size_t PayloadOffset = 0;
  std::size_t PayloadSize = 0;

  /// A reader over the payload; meaningful iff Error is None.
  ByteReader payload() const {
    return ByteReader(Bytes.data() + PayloadOffset, PayloadSize);
  }
};

/// One sized read of \p Path, then unframe(); a frame of a blob kind
/// other than \p BlobKind is Corrupt.
FrameFile readFrameFile(const std::string &Path, std::uint8_t BlobKind);

} // namespace persist
} // namespace prdnn

#endif // PRDNN_PERSIST_FRAMEFILE_H
