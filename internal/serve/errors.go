package serve

import "errors"

// ErrOverloaded is the admission-control sentinel: the daemon refused a
// job because the bounded queue is full or the scheduler is draining.
// The HTTP layer maps it to 503 Service Unavailable with a Retry-After
// header; embedders test for it with errors.Is(err, ErrOverloaded).
// Wrapping sites must preserve it with %w.
var ErrOverloaded = errors.New("sitam: overloaded")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("sitam: job not found")

// ErrInvalid reports a request rejected by validation (out-of-range
// resources, unknown algorithm, malformed SOC selection). The HTTP
// layer maps it to 400.
var ErrInvalid = errors.New("sitam: invalid request")
