// Shared-object artifact store for the compiled execution engine: a
// content-addressed on-disk cache of the native modules codegen::cpp
// emits and the host toolchain compiles (ROADMAP item 2).
//
// Keys are the 128-bit canonical IR hashes of ir_hash.hpp mixed with the
// digest of the emitter's fixed module preamble (elab::compiled_module_key),
// so the store composes with the in-memory DesignCache while objects
// built by an older emitter miss: a warm `fti serve`
// resubmission of a design whose module was compiled by ANY earlier
// process -- same machine, different job, different day -- skips the
// host compiler entirely and dlopen()s the cached object.
//
// Layout: one flat directory (FTI_COMPILED_CACHE_DIR, default
// <tmp>/fti-compiled-cache) of `<32-hex-key>.so` files plus transient
// `<key>.<pid>.<n>.*` scratch files that builders write into before an
// atomic rename publishes them.  Because the filename IS the content
// key and the module embeds the same hash (checked again at load), a
// corrupted or stale object can only ever miss, never alias.
//
// Eviction: an LRU byte budget (FTI_COMPILED_CACHE_BYTES, default
// 256 MiB) over file mtimes -- lookups touch their hit, inserts trim
// the oldest objects until the directory fits.  Everything is safe
// against concurrent stores in other processes: publishes are renames,
// evictions tolerate already-deleted files, and a lost trim race at
// worst leaves the directory briefly over budget.
#pragma once

#include <cstdint>
#include <string>

#include "fti/cache/ir_hash.hpp"

namespace fti::cache {

/// Process-wide running totals across every SoStore instance (the store
/// object itself is a cheap, stateless view over the directory).
struct SoStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

SoStoreStats so_store_stats();

class SoStore {
 public:
  /// `dir` empty resolves FTI_COMPILED_CACHE_DIR then the temp-dir
  /// default; `max_bytes` zero resolves FTI_COMPILED_CACHE_BYTES then
  /// 256 MiB.  The directory is created if missing.
  explicit SoStore(std::string dir = "", std::uint64_t max_bytes = 0);

  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  /// Where `key`'s object lives (whether or not it exists yet).
  std::string path_for(const Key& key) const;

  /// Existing object path for `key`, or "" on miss.  A hit counts as a
  /// use: the file's mtime is refreshed so LRU trims evict it last.
  std::string lookup(const Key& key);

  /// Unique scratch path (same directory, so the publishing rename is
  /// atomic) for a builder to write into; `suffix` like ".so" / ".cpp".
  std::string scratch_path(const Key& key, const char* suffix) const;

  /// Publishes `scratch` as `key`'s object via atomic rename, then
  /// trims the store to the byte budget (never evicting the object just
  /// published).  Returns the final path.  Throws IoError when the
  /// rename fails.
  std::string insert(const Key& key, const std::string& scratch);

  /// Drops `key`'s object if present (corrupted-object recovery).
  void remove(const Key& key);

  /// Sum of the sizes of every published object in the store.
  std::uint64_t total_bytes() const;

 private:
  void trim(const std::string& keep);

  std::string dir_;
  std::uint64_t max_bytes_;
};

}  // namespace fti::cache
