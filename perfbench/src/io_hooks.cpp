#include "io_hooks.hpp"

#include <dlfcn.h>
#include <limits.h>
#include <stdlib.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <mutex>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench::io {

namespace {

std::atomic<u64> g_fsyncs{0};
std::atomic<u64> g_forks{0};

// Attribution state: the paths are written before g_attributing is set
// (release) and read only after it is seen set (acquire).
std::atomic<bool> g_attributing{false};
std::string g_journal_path;
std::string g_cache_path;
std::mutex g_split_mu;
FsyncSplit g_split;  // guarded by g_split_mu

std::string resolved(const std::string& path) {
  char buf[PATH_MAX];
  return ::realpath(path.c_str(), buf) != nullptr ? std::string(buf) : path;
}

std::string fd_path(int fd) {
  char link[64];
  std::snprintf(link, sizeof link, "/proc/self/fd/%d", fd);
  char buf[PATH_MAX];
  const ssize_t n = ::readlink(link, buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<usize>(n)) : std::string();
}

void attribute(int fd, i64 t0, i64 t1) {
  const std::string path = fd_path(fd);
  const char* name = "io.fsync_other";
  std::lock_guard<std::mutex> lk(g_split_mu);
  if (!path.empty() && path == g_journal_path) {
    ++g_split.journal;
    g_split.journal_ns += t1 - t0;
    name = "io.fsync_journal";
  } else if (!path.empty() && path == g_cache_path) {
    ++g_split.cache;
    g_split.cache_ns += t1 - t0;
    name = "io.fsync_cache";
  }
  trace::record({name, nullptr, 0, t0, t1, trace::thread_tag()});
}

}  // namespace

u64 fsync_count() noexcept { return g_fsyncs.load(std::memory_order_relaxed); }
u64 fork_count() noexcept { return g_forks.load(std::memory_order_relaxed); }

void begin_attribution(const std::string& journal_path,
                       const std::string& cache_path) {
  g_journal_path = resolved(journal_path);
  g_cache_path = resolved(cache_path);
  {
    std::lock_guard<std::mutex> lk(g_split_mu);
    g_split = {};
  }
  g_attributing.store(true, std::memory_order_release);
}

FsyncSplit end_attribution() {
  g_attributing.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lk(g_split_mu);
  return g_split;
}

}  // namespace perfbench::io

// The interposers. Symbols defined in the executable take precedence over
// libc's for every object linked into it, including the static simulator
// libraries; RTLD_NEXT finds the libc definitions behind them.
extern "C" int fsync(int fd) {
  using namespace perfbench;
  static const auto real_fsync =
      reinterpret_cast<int (*)(int)>(::dlsym(RTLD_NEXT, "fsync"));
  if (real_fsync == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  io::g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  if (!io::g_attributing.load(std::memory_order_acquire))
    return real_fsync(fd);
  const i64 t0 = now_ns();
  const int r = real_fsync(fd);
  io::attribute(fd, t0, now_ns());
  return r;
}

extern "C" pid_t fork() {
  static const auto real_fork =
      reinterpret_cast<pid_t (*)()>(::dlsym(RTLD_NEXT, "fork"));
  if (real_fork == nullptr) {
    errno = ENOSYS;
    return -1;
  }
  perfbench::io::g_forks.fetch_add(1, std::memory_order_relaxed);
  return real_fork();
}
