#include "qr/checkpoint.hpp"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>

#include <cstdint>
#include <cstdio>

#include "common/error.hpp"
#include "qr/blocking_qr.hpp"
#include "qr/recursive_qr.hpp"
#include "qr/tiled_qr.hpp"
#include "qr/tsqr_ooc.hpp"

namespace rocqr::qr {

namespace {

constexpr const char* kMagic = "rocqr-checkpoint v2";
constexpr const char* kMagicV1 = "rocqr-checkpoint v1";

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over raw bytes. Table built
/// once; this is the integrity check on the checkpoint float payload.
std::uint32_t crc32_update(std::uint32_t crc, const void* data, size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t payload_crc(const Checkpoint& cp) {
  std::uint32_t crc = 0;
  crc = crc32_update(crc, cp.a.data(), cp.a.size() * sizeof(float));
  crc = crc32_update(crc, cp.r.data(), cp.r.size() * sizeof(float));
  return crc;
}

void write_floats(std::ostream& os, const std::vector<float>& v) {
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
  }
}

std::vector<float> read_floats(std::istream& is, size_t count) {
  std::vector<float> v(count);
  if (count > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
    ROCQR_CHECK(is.good(), "checkpoint: truncated float payload");
  }
  return v;
}

/// Copies a contiguous column-major snapshot into a strided host ref.
void restore_block(sim::HostMutRef dst, const std::vector<float>& src) {
  for (index_t j = 0; j < dst.cols; ++j) {
    for (index_t i = 0; i < dst.rows; ++i) {
      dst.data[i + j * dst.ld] =
          src[static_cast<size_t>(i) + static_cast<size_t>(j) * dst.rows];
    }
  }
}

} // namespace

void write_checkpoint(std::ostream& os, const Checkpoint& cp) {
  os << kMagic << "\n"
     << cp.driver << "\n"
     << cp.m << " " << cp.n << " " << cp.blocksize << " " << cp.columns_done
     << " " << cp.units_done << " " << cp.leaves << " " << cp.a.size() << " "
     << cp.r.size() << " " << payload_crc(cp) << "\n";
  write_floats(os, cp.a);
  write_floats(os, cp.r);
  ROCQR_CHECK(os.good(), "checkpoint: write failed");
}

Checkpoint read_checkpoint(std::istream& is) {
  std::string magic;
  std::getline(is, magic);
  const bool v1 = magic == kMagicV1;
  ROCQR_CHECK(magic == kMagic || v1,
              "checkpoint: bad magic '" + magic + "' (expected '" +
                  std::string(kMagic) + "')");
  Checkpoint cp;
  std::getline(is, cp.driver);
  ROCQR_CHECK(cp.driver == "blocking" || cp.driver == "recursive" ||
                  cp.driver == "left" || cp.driver == "tsqr" ||
                  cp.driver == "tiled",
              "checkpoint: unknown driver '" + cp.driver + "'");
  size_t a_count = 0;
  size_t r_count = 0;
  std::uint32_t stored_crc = 0;
  is >> cp.m >> cp.n >> cp.blocksize >> cp.columns_done >> cp.units_done;
  if (!v1) is >> cp.leaves;
  is >> a_count >> r_count;
  if (!v1) is >> stored_crc;
  ROCQR_CHECK(is.good(), "checkpoint: malformed header");
  ROCQR_CHECK(cp.m >= cp.n && cp.n >= 1 && cp.blocksize >= 1 &&
                  cp.columns_done >= 0 && cp.columns_done <= cp.n &&
                  cp.units_done >= 0 && cp.leaves >= 0,
              "checkpoint: header values out of range");
  const size_t mn = static_cast<size_t>(cp.m) * static_cast<size_t>(cp.n);
  const size_t nn = static_cast<size_t>(cp.n) * static_cast<size_t>(cp.n);
  if (cp.driver == "tsqr") {
    // The tsqr R payload is the stacked per-leaf workspace: k * n x n for
    // some leaf count k bounded by m / n (or the caller's single n x n R in
    // a unit-0 snapshot, which is the k == 1 case of the same rule).
    const size_t max_leaves =
        static_cast<size_t>(cp.m) / static_cast<size_t>(cp.n);
    ROCQR_CHECK((a_count == 0 && r_count == 0) ||
                    (a_count == mn && nn > 0 && r_count % nn == 0 &&
                     r_count / nn >= 1 && r_count / nn <= max_leaves),
                "checkpoint: tsqr payload sizes do not match the dimensions");
  } else {
    ROCQR_CHECK((a_count == 0 && r_count == 0) ||
                    (a_count == mn && r_count == nn),
                "checkpoint: payload sizes do not match the dimensions");
  }
  is.get(); // the newline terminating the header
  cp.a = read_floats(is, a_count);
  cp.r = read_floats(is, r_count);
  if (!v1) {
    const std::uint32_t actual = payload_crc(cp);
    if (actual != stored_crc) {
      throw InvalidArgument(
          "checkpoint: payload CRC mismatch (stored " +
          std::to_string(stored_crc) + ", computed " + std::to_string(actual) +
          ") — the checkpoint is corrupt or truncated; refusing to resume");
    }
  }
  return cp;
}

void FileCheckpointSink::write(const Checkpoint& cp) {
  // Serialize to a sidecar and rename into place: a crash or injected
  // fault mid-write must not destroy the previous good checkpoint (the
  // whole point of having one).
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    ROCQR_CHECK(os.is_open(),
                "checkpoint: cannot open '" + tmp + "' for writing");
    write_checkpoint(os, cp);
    os.flush();
    ROCQR_CHECK(os.good(), "checkpoint: write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: cannot rename '" + tmp + "' to '" +
                          path_ + "'");
  }
}

Checkpoint load_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  ROCQR_CHECK(is.is_open(), "checkpoint: cannot open '" + path + "'");
  return read_checkpoint(is);
}

QrStats detail::resume_impl(const std::vector<sim::Device*>& devices,
                            const Checkpoint& cp, sim::HostMutRef a,
                            sim::HostMutRef r, QrOptions opts) {
  ROCQR_CHECK(!devices.empty(), "qr::resume: no devices");
  ROCQR_CHECK(a.rows == cp.m && a.cols == cp.n,
              "qr::resume: A shape does not match the checkpoint");
  ROCQR_CHECK(r.rows == cp.n && r.cols == cp.n,
              "qr::resume: R shape does not match the checkpoint");
  // The unit numbering is a function of the panel partition, so the resumed
  // run must replay the exact schedule the checkpoint was cut from.
  ROCQR_CHECK(opts.blocksize == cp.blocksize,
              "qr::resume: blocksize differs from the checkpointed run");

  if (cp.driver == "tsqr") {
    const std::vector<float>* r_stack = nullptr;
    if (a.data != nullptr) {
      ROCQR_CHECK(!cp.a.empty(),
                  "qr::resume: Real-mode resume needs a checkpoint with "
                  "host snapshots (this one is schedule-only)");
      restore_block(a, cp.a);
      if (cp.units_done == 0) {
        // Unit-0 snapshot of the pristine inputs: cp.r is the caller's R.
        const size_t nn =
            static_cast<size_t>(cp.n) * static_cast<size_t>(cp.n);
        ROCQR_CHECK(cp.r.size() == nn,
                    "qr::resume: unit-0 tsqr checkpoint must carry the "
                    "caller's n x n R");
        restore_block(r, cp.r);
      } else {
        r_stack = &cp.r; // stacked per-leaf workspace; the driver validates
      }
    }
    opts.resume_units = cp.units_done;
    // Pin the checkpointed leaf partition so a shrunk fleet (migration after
    // device loss) replays the same row blocks. v1 checkpoints carry no leaf
    // count; mid-run ones still imply it through the stacked-R workspace.
    index_t leaves = cp.leaves;
    if (leaves == 0 && cp.units_done > 0 && !cp.r.empty()) {
      const size_t nn = static_cast<size_t>(cp.n) * static_cast<size_t>(cp.n);
      leaves = static_cast<index_t>(cp.r.size() / nn);
    }
    return detail::run_tsqr(devices, a, r, opts, r_stack, leaves);
  }

  ROCQR_CHECK(devices.size() == 1,
              "qr::resume: a '" + cp.driver +
                  "' checkpoint resumes on exactly one device");
  sim::Device& dev = *devices.front();
  if (a.data != nullptr) {
    ROCQR_CHECK(!cp.a.empty(),
                "qr::resume: Real-mode resume needs a checkpoint with "
                "host snapshots (this one is schedule-only)");
    restore_block(a, cp.a);
    restore_block(r, cp.r);
  }
  opts.resume_units = cp.units_done;
  if (cp.driver == "blocking") return detail::run_blocking(dev, a, r, opts);
  if (cp.driver == "recursive") return detail::run_recursive(dev, a, r, opts);
  if (cp.driver == "left" || cp.driver == "tiled") {
    return detail::run_batch(dev, {{cp.driver, a, r, opts, ""}}).front();
  }
  throw InvalidArgument("qr::resume: unknown driver '" + cp.driver + "'");
}

} // namespace rocqr::qr
