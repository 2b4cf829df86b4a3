#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.h"

namespace stwa {
namespace nn {
namespace {

constexpr uint32_t kMagic = 0x53545741;  // "STWA"
// Version 3 marked checkpoints whose metadata may carry per-channel int8
// weight scales; that tier is gone and readers ignore legacy int8_scale.*
// entries. The byte layout is unchanged from version 2, so this build
// still reads both.
// Version 2 added the metadata blob and the validate-before-commit load.
// Version 1 files (pre-serving checkpoints) are rejected with a clear
// message; they were never produced outside of transient test runs.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 2;

// Test seam for the forward-compat error path: caps the version this
// reader accepts, simulating a version-2-era binary opening a version-3
// file. 0 = no cap.
uint32_t g_max_read_version_for_test = 0;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T ReadPod(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  STWA_CHECK(in.good(), "truncated checkpoint");
  return value;
}

void WriteString(std::ofstream& out, const std::string& s) {
  WritePod(out, static_cast<uint64_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string ReadString(std::ifstream& in, uint64_t max_len,
                       const char* what) {
  const uint64_t len = ReadPod<uint64_t>(in);
  STWA_CHECK(len <= max_len, "implausible ", what, " length ", len);
  std::string s(len, '\0');
  in.read(s.data(), static_cast<std::streamsize>(len));
  STWA_CHECK(in.good(), "truncated checkpoint while reading ", what);
  return s;
}

/// Opens `path` and positions the stream just past the version word.
std::ifstream OpenAndCheckHeader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  STWA_CHECK(in.good(), "cannot open checkpoint '", path, "'");
  STWA_CHECK(ReadPod<uint32_t>(in) == kMagic, "'", path,
             "' is not an STWA checkpoint");
  const uint32_t version = ReadPod<uint32_t>(in);
  const uint32_t max_read = g_max_read_version_for_test != 0
                                ? g_max_read_version_for_test
                                : kVersion;
  STWA_CHECK(version >= kMinVersion, "checkpoint '", path, "' has version ",
             version, "; this build reads versions ", kMinVersion, "..",
             max_read, " — re-save the checkpoint with the current code");
  STWA_CHECK(version <= max_read, "checkpoint '", path, "' has version ",
             version, ", written by a newer build; this reader supports "
             "versions ", kMinVersion, "..", max_read,
             " — upgrade this binary, or re-save the checkpoint with a "
             "build of the same vintage as this reader");
  return in;
}

CheckpointMeta ReadMeta(std::ifstream& in) {
  CheckpointMeta meta;
  const uint64_t count = ReadPod<uint64_t>(in);
  STWA_CHECK(count < 65536, "implausible metadata entry count ", count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string key = ReadString(in, 4096, "metadata key");
    std::string value = ReadString(in, 1 << 20, "metadata value");
    meta.Set(key, value);
  }
  return meta;
}

}  // namespace

namespace internal {

void SetMaxCheckpointReadVersionForTest(uint32_t version) {
  g_max_read_version_for_test = version;
}

}  // namespace internal

void CheckpointMeta::Set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

void CheckpointMeta::SetInt(const std::string& key, int64_t value) {
  Set(key, std::to_string(value));
}

void CheckpointMeta::SetFloat(const std::string& key, float value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  Set(key, buf);
}

bool CheckpointMeta::Has(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

const std::string& CheckpointMeta::Get(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  STWA_FAIL("checkpoint metadata has no entry '", key, "'");
}

std::string CheckpointMeta::GetOr(const std::string& key,
                                  const std::string& fallback) const {
  return Has(key) ? Get(key) : fallback;
}

int64_t CheckpointMeta::GetInt(const std::string& key) const {
  const std::string& s = Get(key);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  STWA_CHECK(end != nullptr && *end == '\0' && !s.empty(),
             "metadata entry '", key, "' = '", s, "' is not an integer");
  return static_cast<int64_t>(v);
}

float CheckpointMeta::GetFloat(const std::string& key) const {
  const std::string& s = Get(key);
  char* end = nullptr;
  const float v = std::strtof(s.c_str(), &end);
  STWA_CHECK(end != nullptr && *end == '\0' && !s.empty(),
             "metadata entry '", key, "' = '", s, "' is not a float");
  return v;
}

void SaveParameters(const Module& module, const std::string& path,
                    const CheckpointMeta& meta) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    STWA_CHECK(out.good(), "cannot open '", tmp, "' for writing");
    WritePod(out, kMagic);
    WritePod(out, kVersion);
    WritePod(out, static_cast<uint64_t>(meta.entries().size()));
    for (const auto& [key, value] : meta.entries()) {
      WriteString(out, key);
      WriteString(out, value);
    }
    auto named = module.NamedParameters();
    WritePod(out, static_cast<uint64_t>(named.size()));
    for (const auto& [name, var] : named) {
      WriteString(out, name);
      const Tensor& t = var.value();
      WritePod(out, static_cast<uint64_t>(t.rank()));
      for (int64_t d : t.shape()) WritePod(out, static_cast<int64_t>(d));
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(sizeof(float) * t.size()));
    }
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      STWA_FAIL("write to '", tmp, "' failed");
    }
  }
  // Atomic publish: readers see either the old or the new checkpoint,
  // never a partial write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    STWA_FAIL("cannot rename '", tmp, "' to '", path, "'");
  }
}

CheckpointMeta LoadCheckpointMeta(const std::string& path) {
  std::ifstream in = OpenAndCheckHeader(path);
  return ReadMeta(in);
}

uint32_t PeekCheckpointFormatVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  STWA_CHECK(in.good(), "cannot open checkpoint '", path, "'");
  STWA_CHECK(ReadPod<uint32_t>(in) == kMagic, "'", path,
             "' is not an STWA checkpoint");
  return ReadPod<uint32_t>(in);
}

void LoadParameters(Module& module, const std::string& path) {
  std::ifstream in = OpenAndCheckHeader(path);
  const CheckpointMeta meta = ReadMeta(in);

  // Read the complete file into a staging table first; the module is not
  // touched until every name and shape has been validated.
  struct Entry {
    Shape shape;
    std::vector<float> data;
  };
  std::map<std::string, Entry> file_params;
  const uint64_t count = ReadPod<uint64_t>(in);
  for (uint64_t i = 0; i < count; ++i) {
    std::string name = ReadString(in, 4096, "parameter name");
    const uint64_t rank = ReadPod<uint64_t>(in);
    STWA_CHECK(rank <= 16, "implausible parameter rank");
    Entry entry;
    entry.shape.resize(rank);
    for (uint64_t d = 0; d < rank; ++d) {
      entry.shape[d] = ReadPod<int64_t>(in);
      STWA_CHECK(entry.shape[d] >= 0, "negative dimension in checkpoint");
    }
    entry.data.resize(static_cast<size_t>(NumElements(entry.shape)));
    in.read(reinterpret_cast<char*>(entry.data.data()),
            static_cast<std::streamsize>(sizeof(float) *
                                         entry.data.size()));
    STWA_CHECK(in.good(), "truncated checkpoint while reading '", name,
               "'");
    STWA_CHECK(file_params.emplace(name, std::move(entry)).second,
               "duplicate parameter '", name, "' in checkpoint");
  }

  // Validate the whole architecture in one pass and report every
  // difference at once.
  auto named = module.NamedParameters();
  std::ostringstream mismatch;
  int mismatches = 0;
  auto note = [&](const std::string& line) {
    if (mismatches < 8) mismatch << "\n  " << line;
    ++mismatches;
  };
  std::map<std::string, const Entry*> unmatched;
  for (const auto& [name, entry] : file_params) {
    unmatched.emplace(name, &entry);
  }
  for (const auto& [name, var] : named) {
    auto it = file_params.find(name);
    if (it == file_params.end()) {
      note("module parameter '" + name + "' missing from checkpoint");
      continue;
    }
    unmatched.erase(name);
    if (var.value().shape() != it->second.shape) {
      note("shape mismatch for '" + name + "': module " +
           ShapeToString(var.value().shape()) + " vs file " +
           ShapeToString(it->second.shape));
    }
  }
  for (const auto& [name, entry] : unmatched) {
    note("checkpoint parameter '" + name + "' not found in the module");
  }
  if (mismatches > 0) {
    std::ostringstream msg;
    msg << "architecture mismatch loading '" << path << "'";
    if (meta.Has("model")) {
      msg << " (checkpoint was saved for model '" << meta.Get("model")
          << "')";
    }
    msg << ": " << mismatches << " difference(s)" << mismatch.str();
    if (mismatches > 8) msg << "\n  ...";
    STWA_FAIL(msg.str());
  }

  // Commit: every name and shape matched, so this cannot throw and the
  // module never ends up half-loaded.
  for (auto& [name, var] : named) {
    const Entry& entry = file_params.at(name);
    Tensor& target = var.node()->value;
    std::copy(entry.data.begin(), entry.data.end(), target.data());
  }
}

}  // namespace nn
}  // namespace stwa
