package lockorder_a

import "sync"

type Outer struct {
	Mu sync.Mutex
	In Inner
}

type Inner struct {
	Mu sync.Mutex
}

func use(o *Outer) {}

// LockInner is the exported helper fixture b calls to exercise the
// imported Acquires fact.
func LockInner(o *Outer) {
	o.In.Mu.Lock()
	defer o.In.Mu.Unlock()
}

func lockOuter(o *Outer) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
}

func goodDefer(o *Outer) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	use(o)
}

func goodManual(o *Outer) {
	o.Mu.Lock()
	use(o)
	o.Mu.Unlock()
}

func goodNested(o *Outer) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	o.In.Mu.Lock()
	defer o.In.Mu.Unlock()
}

func badReturn(o *Outer, x bool) {
	o.Mu.Lock()
	if x {
		return // want `return while lockorder_a\.Outer\.Mu \(locked at testdata/src/lockorder_a/a\.go:\d+:\d+\) is still held`
	}
	o.Mu.Unlock()
}

func badLeak(o *Outer) {
	o.Mu.Lock() // want `not released on every path`
	use(o)
}

func badInversion(o *Outer) {
	o.In.Mu.Lock()
	defer o.In.Mu.Unlock()
	o.Mu.Lock() // want `lock-order inversion`
	defer o.Mu.Unlock()
}

func badSelf(o *Outer) {
	o.Mu.Lock()
	defer o.Mu.Unlock()
	o.Mu.Lock() // want `\(locked at testdata/src/lockorder_a/a\.go:\d+:\d+\): self-deadlock` `not released on every path`
}

func badIndirect(o *Outer) {
	o.In.Mu.Lock()
	defer o.In.Mu.Unlock()
	lockOuter(o) // want `lock-order inversion`
}
