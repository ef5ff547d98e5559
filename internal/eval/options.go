package eval

import "runtime"

// Option tunes one evaluation call. The zero configuration — serial
// enumeration with the store's memo consulted — is what every caller gets
// without options, and is byte-identical in output to any other
// configuration: options only trade time for resources.
type Option func(*config)

// config is the resolved per-call evaluation configuration.
type config struct {
	workers int        // effective worker count; 1 = serial
	noCache bool       // bypass the maintainer and the memo entirely
	maint   Maintainer // incrementally maintained state to serve from, or nil
}

// Parallel partitions the top-level scan of the enumeration across n worker
// goroutines (per-worker results are merged deterministically, so output
// order is unchanged). n ≤ 0 selects GOMAXPROCS workers; n == 1 (or omitting
// the option) evaluates serially. Parallelism pays off on databases where a
// single evaluation takes milliseconds; on tiny instances the serial path is
// faster and the engine falls back to it automatically when the driving scan
// is too small to split.
func Parallel(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
	}
}

// NoCache makes the call bypass the store's memo AND any carried
// maintainer: nothing is looked up and nothing is stored, the call always
// enumerates cold. Benchmarks and the differential harness
// use it to measure (and cross-check against) cold evaluation; it is also
// the escape hatch for callers that mutate the database outside db.Store's
// mutation methods (none in this repository do).
func NoCache() Option {
	return func(c *config) { c.noCache = true }
}

// Maintained makes the call consult m first: if m serves the call, its
// answer is returned without touching the memo or enumerating. The cleaner
// passes its view engine this way on every call of an incremental run, so
// the engine's lifetime is the run's and no other caller can reach it.
func Maintained(m Maintainer) Option {
	return func(c *config) { c.maint = m }
}

// resolve folds the options into a config.
func resolve(opts []Option) config {
	c := config{workers: 1}
	for _, o := range opts {
		o(&c)
	}
	if c.workers < 1 {
		c.workers = 1
	}
	return c
}
