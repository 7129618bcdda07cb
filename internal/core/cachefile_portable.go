//go:build !unix

package core

import "os"

// Portable backing for the persistent cache on platforms without
// flock: no inter-process lock (single-process use is still safe — the
// CacheFile mutex serializes appends).

func lockCacheFile(*os.File) error { return nil }

func unlockCacheFile(*os.File) {}
