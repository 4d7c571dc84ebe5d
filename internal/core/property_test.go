package core_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/iio"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The §4 credit abstraction promises that a domain's credit pool is
// conserved: a sender consumes exactly one credit per request and gets
// exactly one back when the receiver acknowledges it, so credits in use
// never exceed the pool, never go negative, and the pool is whole once the
// domain drains. These property tests drive the real P2M credit pools (the
// IIO) with testing/quick-generated random traffic and assert those
// invariants at every transition.

// randomSink completes each submitted request after a random delay,
// standing in for the CHA -> MC -> DRAM path with arbitrary contention.
type randomSink struct {
	eng *sim.Engine
	rng *rand.Rand
}

func (s *randomSink) Submit(r *mem.Request) {
	d := sim.Time(1+s.rng.IntN(400)) * sim.Nanosecond
	s.eng.AfterFunc(d, func(any) { r.Done(r) }, nil)
}

func TestCreditConservationUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64, wc, rc uint8, nops uint16) bool {
		cfg := iio.DefaultConfig()
		cfg.WriteCredits = int(wc%64) + 1
		cfg.ReadCredits = int(rc%64) + 1
		eng := sim.New()
		rng := sim.RNG(seed)
		io := iio.New(eng, cfg, &randomSink{eng: eng, rng: sim.RNG(seed ^ 0xdead)})

		ok := true
		check := func() {
			wFree, rFree := io.WriteCreditsFree(), io.ReadCreditsFree()
			if wFree < 0 || wFree > cfg.WriteCredits || rFree < 0 || rFree > cfg.ReadCredits {
				ok = false
			}
			// Occupancy probe and free count must account for the whole pool.
			if wFree+io.Stats().WriteOcc.Level() != cfg.WriteCredits ||
				rFree+io.Stats().ReadOcc.Level() != cfg.ReadCredits {
				ok = false
			}
		}

		// Random open-loop traffic: issue attempts at random times, randomly
		// reads or writes, far denser than the pools can absorb.
		ops := int(nops%1500) + 1
		var issuedW, issuedR uint64
		for i := 0; i < ops; i++ {
			at := sim.Time(rng.IntN(2000)) * sim.Nanosecond
			write := rng.IntN(2) == 0
			addr := mem.Addr(rng.Uint64() % (1 << 34))
			eng.AtFunc(at, func(any) {
				check()
				if write {
					if io.TryWrite(addr, 0, check) {
						issuedW++
					}
				} else {
					if io.TryRead(addr, 0, check) {
						issuedR++
					}
				}
				check()
			}, nil)
		}
		eng.Run()

		// Drained: every credit is back and every accepted line completed.
		check()
		if io.WriteCreditsFree() != cfg.WriteCredits || io.ReadCreditsFree() != cfg.ReadCredits {
			return false
		}
		if io.Stats().LinesIn.Count() != issuedW || io.Stats().LinesOut.Count() != issuedR {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// MaxThroughput (the C*64/L credit bound) must be non-negative and
// monotonic: never increasing in latency, never decreasing in credits.
func TestCreditBoundMonotonicityQuick(t *testing.T) {
	f := func(credits uint16, l1, l2 uint32) bool {
		d := core.Domain{Kind: core.C2MRead, Credits: int(credits%512) + 1}
		la := sim.Time(l1%1_000_000+1) * sim.Nanosecond
		lb := sim.Time(l2%1_000_000+1) * sim.Nanosecond
		if lb < la {
			la, lb = lb, la
		}
		tA, tB := d.MaxThroughput(la), d.MaxThroughput(lb)
		if tA < 0 || tB < 0 || tB > tA {
			return false
		}
		bigger := d
		bigger.Credits++
		return bigger.MaxThroughput(la) >= tA
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Classify must agree with the regime definitions for any degradation pair.
func TestClassifyConsistencyQuick(t *testing.T) {
	f := func(c2m, p2m float64) bool {
		if c2m < 0 || p2m < 0 || c2m != c2m || p2m != p2m { // reject NaN/negatives
			return true
		}
		switch core.Classify(c2m, p2m) {
		case core.Red:
			return p2m >= 1.10
		case core.Blue:
			return c2m >= 1.10 && p2m < 1.10
		case core.NoContention:
			return c2m < 1.10 && p2m < 1.10
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
