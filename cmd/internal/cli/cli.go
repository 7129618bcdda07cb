// Package cli holds the run-lifecycle plumbing shared by the sitam
// commands: a root context wired to SIGINT/SIGTERM and an optional
// -timeout deadline, the exit-code convention for reporting how a run
// ended, and the loaders behind the shared -soc/-file and -cache-file
// flags.
//
// All commands exit with:
//
//	0    success
//	1    error (bad input, I/O failure, internal error)
//	3    partial result: the deadline expired or the run was
//	     interrupted, and the best result found so far was printed
//	130  forced exit: a second SIGINT/SIGTERM arrived while the
//	     command was still draining after the first one
package cli

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"sitam/internal/core"
	"sitam/internal/soc"
)

// Exit codes shared by all sitam commands.
const (
	ExitOK      = 0
	ExitError   = 1
	ExitPartial = 3

	// ExitForced is 128+SIGINT, the conventional code for a
	// signal-forced termination.
	ExitForced = 130
)

// Context returns a context that is cancelled on SIGINT or SIGTERM and,
// when timeout is positive, expires after the timeout.
//
// The first signal only cancels the context: the command drains
// gracefully, printing its partial result. A second signal while that
// drain is still running forces an immediate os.Exit(ExitForced) — a
// stuck drain must never trap the user in an unkillable command. The
// returned stop function releases the signal handler (restoring
// default Ctrl-C behavior) and cancels the context.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	base, interrupt := context.WithCancel(context.Background())
	ctx := base
	cancelTimeout := func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(base, timeout)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	go func() {
		select {
		case <-stopped:
			return
		case <-sig:
		}
		interrupt() // begin the graceful drain
		fmt.Fprintln(os.Stderr, "interrupt: draining (press Ctrl-C again to force exit)")
		select {
		case <-stopped:
		case <-sig:
			fmt.Fprintln(os.Stderr, "second interrupt: forcing exit")
			os.Exit(ExitForced)
		}
	}()

	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sig)
			close(stopped)
		})
		cancelTimeout()
		interrupt()
	}
	return ctx, stop
}

// IsCtxErr reports whether err is the context machinery's cancellation
// or deadline error (possibly wrapped).
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Cause names why the context is done, for the partial-result marker:
// "deadline" after -timeout expiry, "interrupted" after a signal.
func Cause(ctx context.Context) string {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return "deadline"
	case errors.Is(ctx.Err(), context.Canceled):
		return "interrupted"
	}
	return "partial"
}

// LoadSOC loads the SOC a command's -file and -soc flags name: the
// .soc file when file is set, otherwise the embedded benchmark.
func LoadSOC(file, name string) (*soc.SOC, error) {
	if file == "" {
		return soc.LoadBenchmark(name)
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return soc.Parse(f)
}

// OpenCacheFile opens the persistent evaluation-cache file behind a
// command's -cache-file flag. Persistence is an accelerator, never a
// gate: with an empty path, or a file that cannot be opened (logged),
// it returns nil and the run goes memory-only. The returned close
// func closes the file and logs a failed Close, whose appends since
// the last sync may be lost.
func OpenCacheFile(path string) (*core.CacheFile, func()) {
	if path == "" {
		return nil, func() {}
	}
	cf, err := core.OpenCacheFile(path)
	if err != nil {
		log.Printf("cache file %s unavailable (%v); continuing without persistence", path, err)
		return nil, func() {}
	}
	return cf, func() {
		if err := cf.Close(); err != nil {
			log.Printf("cache file %s: close: %v (appends since the last sync may be lost)", path, err)
		}
	}
}
