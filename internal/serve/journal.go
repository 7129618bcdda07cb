package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// Journal is the crash-safe append-only job log. Every admitted job
// writes a "submitted" entry before the client sees its 202, and every
// terminal transition writes a "terminal" entry; both are fsynced, so
// after a crash (kill -9 included) the journal names every job the
// daemon ever acknowledged and carries the full Outcome of every job
// that finished. Recovery (see Scheduler) replays terminal entries so
// completed and partial results survive a restart, and closes out
// submitted-but-unterminated jobs as failed — an admitted job reaches a
// terminal state even across a crash. A computed done outcome's entry
// names the build that computed it, so a restart of the same build
// answers repeats from it.
//
// The format is JSONL. A crash can tear the final line; OpenJournal
// tolerates that by truncating the torn tail (every complete entry
// before it survives) so the journal is well-formed again before
// anything is appended.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// JournalEntry is one journal line.
type JournalEntry struct {
	T  string `json:"t"` // "submitted" | "terminal"
	ID string `json:"id"`

	// submitted entries:
	Req *Request `json:"req,omitempty"`

	// terminal entries:
	State      State    `json:"state,omitempty"`
	Result     *Outcome `json:"result,omitempty"`
	Error      string   `json:"error,omitempty"`
	ReusedFrom string   `json:"reusedFrom,omitempty"`
	// Build is the identity of the build that computed a done outcome
	// (buildIdentity), set only on a computed done job's entry.
	Build string `json:"build,omitempty"`
}

// buildIdentity is the running build's identity: the first 8 bytes of
// the SHA-256 of its executable, in hex, or "" when the executable
// cannot be read. It is computed on first use, at most once per
// process; a scheduler asks for it only when it has a journal.
var buildIdentity = sync.OnceValue(func() string { return fileIdentity(executable()) })

// executable names the running executable's file. On Linux that is
// /proc/self/exe, which still opens the running image after the file
// at its path is replaced.
func executable() string {
	if runtime.GOOS == "linux" {
		return "/proc/self/exe"
	}
	path, _ := os.Executable()
	return path
}

// fileIdentity returns the first 8 bytes of the SHA-256 of the file at
// path, in hex, or "" when the file cannot be read.
func fileIdentity(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// OpenJournal opens (creating if needed) the journal at path and
// returns the entries already on disk, oldest first. A torn final line
// left by a crash is truncated away before the journal accepts new
// appends.
func OpenJournal(path string) (*Journal, []JournalEntry, error) {
	entries, validLen, torn, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("repairing journal %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, path: path}, entries, nil
}

// readJournal parses the existing journal. validLen is the byte length
// of the well-formed prefix; torn reports a final line the crash cut
// short (an unparsable line anywhere else is corruption and errors).
// Append writes each entry together with its newline, so a final entry
// without one is torn too, parsable or not: the next append would glue
// itself onto it. A terminal entry whose state is not terminal is
// corruption as well.
func readJournal(path string) (entries []JournalEntry, validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return nil, 0, false, rerr
		}
		if body := bytes.TrimSpace(line); len(body) > 0 {
			if rerr == io.EOF {
				return entries, validLen, true, nil
			}
			var e JournalEntry
			if jerr := json.Unmarshal(body, &e); jerr != nil {
				if !atEOF(r) {
					return nil, 0, false, fmt.Errorf("journal %s: unparsable entry %d: %w", path, len(entries)+1, jerr)
				}
				return entries, validLen, true, nil
			}
			if e.T == "terminal" && !e.State.Terminal() {
				return nil, 0, false, fmt.Errorf("journal %s: entry %d: job %s has non-terminal state %q", path, len(entries)+1, e.ID, e.State)
			}
			entries = append(entries, e)
		}
		validLen += int64(len(line))
		if rerr == io.EOF {
			return entries, validLen, false, nil
		}
	}
}

// atEOF reports whether the reader has no further bytes.
func atEOF(r *bufio.Reader) bool {
	_, err := r.Peek(1)
	return err == io.EOF
}

// Append durably writes one entry: the write and the fsync complete
// before Append returns.
func (j *Journal) Append(e JournalEntry) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
