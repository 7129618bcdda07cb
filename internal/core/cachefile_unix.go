//go:build unix

package core

import (
	"os"
	"syscall"
	"time"
)

// Unix backing for the persistent cache: BSD flock for the exclusive
// advisory lock.

// cacheLockRetries × cacheLockBackoff bounds how long a second opener
// waits before degrading to memory-only with ErrCacheLocked. Vars, not
// consts, so the fd-leak regression test can drop the backoff and
// hammer the failure path without waiting out the retry window; the
// defaults are unchanged.
var (
	cacheLockRetries = 5
	cacheLockBackoff = 20 * time.Millisecond
)

func lockCacheFile(f *os.File) error {
	for i := 0; ; i++ {
		err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if err == nil {
			return nil
		}
		if err != syscall.EWOULDBLOCK && err != syscall.EAGAIN {
			return err
		}
		if i >= cacheLockRetries {
			return ErrCacheLocked
		}
		time.Sleep(cacheLockBackoff)
	}
}

func unlockCacheFile(f *os.File) {
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
