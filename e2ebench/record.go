package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
)

// recordReference rewrites the reference entries of one size (toy with
// -toy, full otherwise) and of the selected workloads (-workload, all by
// default) from the program's current outputs: every input seed of
// paper-tables and ils-search and every catalogue request of
// daemon-jobs. Other entries are kept. Re-record only for a change that
// is meant to alter outputs, and say so in it.
func recordReference(o *options) error {
	ref, err := loadReference(o.ref)
	if errors.Is(err, fs.ErrNotExist) {
		ref, err = reference{}, nil
	}
	if err != nil {
		return err
	}
	pick := map[string]bool{}
	for _, w := range workloads {
		pick[w] = o.workload == "all" || o.workload == w
	}
	if o.workload != "all" && !pick[o.workload] {
		return fmt.Errorf("unknown workload %q (want one of %s or all)", o.workload, strings.Join(workloads, ", "))
	}
	suffix := "/" + size(o.toy) + "/"
	for k := range ref {
		if w, rest, _ := strings.Cut(k, "/"); pick[w] && strings.HasPrefix(rest, size(o.toy)+"/") {
			delete(ref, k)
		}
	}
	tables, ils, jobs := pick["paper-tables"], pick["ils-search"], pick["daemon-jobs"]
	for seed := int64(1); seed <= inputSeeds && (tables || ils); seed++ {
		sp := spec{Seed: seed, Toy: o.toy, Out: o.out}
		if tables {
			t, err := runTables(sp, nil)
			if err == nil && t.Failed > 0 {
				err = errors.New(strings.Join(t.Failures, "; "))
			}
			if err == nil {
				err = ref.put(fmt.Sprintf("paper-tables%s%d", suffix, seed), t.Cells)
			}
			if err != nil {
				return fmt.Errorf("paper-tables seed %d: %w", seed, err)
			}
		}
		if ils {
			u, err := runILS(sp, nil)
			if err == nil && u.Failed > 0 {
				err = errors.New(strings.Join(u.Failures, "; "))
			}
			if err == nil {
				err = ref.put(fmt.Sprintf("ils-search%s%d", suffix, seed), u.ILS)
			}
			if err != nil {
				return fmt.Errorf("ils-search seed %d: %w", seed, err)
			}
		}
		fmt.Fprintf(os.Stderr, "e2ebench: recorded %s seed %d\n", size(o.toy), seed)
	}
	if jobs {
		outcomes, err := recordJobs(o.toy)
		if err != nil {
			return err
		}
		for key, outcome := range outcomes {
			if err := ref.put("daemon-jobs"+suffix+key, outcome); err != nil {
				return err
			}
		}
	}
	return ref.write(o.ref)
}
