package metricvocab_a

import "sitam/internal/obs"

// Pick is a closed-switch series-name helper — it earns the VocabFunc
// fact and may feed registry calls here and in importing packages.
func Pick(done bool) string {
	if done {
		return "serve_done"
	}
	return "serve_failed"
}

// Leak is not closed over the vocabulary: no fact.
func Leak(s string) string { return s }

func good(r *obs.Registry, version string) {
	r.Counter("serve_shed").Inc()
	r.Gauge(obs.Labels("sitam_jobs_total", "state", "done")).Set(1)
	r.Gauge(obs.Labels("sitam_build_info", "version", version)).Set(1)
	r.Counter(Pick(true)).Inc()
}

func bad(r *obs.Registry, s string) {
	r.Counter("serve_" + s).Inc()                               // want `not a compile-time member`
	r.Counter("zz_bogus").Inc()                                 // want `not in the DESIGN §13 vocabulary`
	r.Gauge(obs.Labels("sitam_jobs_total", "zone", "a")).Set(1) // want `label key "zone" is not in the closed label vocabulary`
	r.Counter(Leak(s)).Inc()                                    // want `not a compile-time member`
	r.Counter(obs.Labels("zz_dyn", "state", "x")).Inc()         // want `"zz_dyn" is not in the DESIGN §13 vocabulary`
}
