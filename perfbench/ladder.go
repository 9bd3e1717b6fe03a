package main

import (
	"context"
	"time"
)

const (
	// sloP99 is the latency limit on the ladder: a rung passes when its
	// p99, measured from the due time, is at most this.
	sloP99 = 25.0 // ms
	// rungRequests is the least length of one ladder rung in requests:
	// enough to put minTail samples beyond the rung's p99 at any rate.
	rungRequests = 1200
	// minRungLen is the least length of a rung in time: a shorter one
	// cannot show a growing backlog.
	minRungLen = time.Second
	// rungStep is the rate ratio between successive rungs.
	rungStep = 1.5
	maxRungs = 7
)

// rung is one ladder step's outcome.
type rung struct {
	Rate     float64 // offered, requests per second
	Achieved float64 // completed within the rung, requests per second
	P99      float64
	Pass     bool
}

// ladder offers increasing open-loop rates, starting at start, until a
// rung misses the SLO: p99 above sloP99, any failed or unfinished
// request, or a growing backlog (the last quarter's queue wait well above
// the first quarter's). It returns every rung run. Every response is
// checked, and an invalid one fails the run; a request a rung leaves
// unfinished or late is only an SLO miss, since overload is what the
// ladder looks for.
func (r *Runner) ladder(ctx context.Context, gen *Generator, start float64) []rung {
	var out []rung
	rate := start
	for i := 0; i < maxRungs; i++ {
		n := max(rungRequests, int(rate*minRungLen.Seconds()))
		jobs := Schedule(r.w.requests(r.opts.Seed+int64(100+i), n), rate, len(gen.Targets), false)
		length := time.Duration(float64(n) / rate * float64(time.Second))
		res := gen.Run(ctx, jobs)
		var lat []float64
		var firstWait, lastWait []float64
		failed := 0
		for _, x := range res {
			if x.Err == nil || x.Invalid {
				r.op(x.Err)
			}
			if x.Err != nil {
				failed++
				lat = append(lat, 1e9)
				continue
			}
			lat = append(lat, x.Latency())
			switch {
			case x.Due < length/4:
				firstWait = append(firstWait, ms(x.Sent-x.Due))
			case x.Due >= length*3/4:
				lastWait = append(lastWait, ms(x.Sent-x.Due))
			}
		}
		p99, ok := Quantile(lat, 0.99)
		growing := Median(lastWait) > 2*Median(firstWait)+1
		rg := rung{Rate: rate, P99: p99, Achieved: float64(len(res)-failed) / length.Seconds()}
		rg.Pass = ok && failed == 0 && p99 <= sloP99 && !growing
		out = append(out, rg)
		r.logf("%s: ladder %.0f/s: achieved %.1f/s p99 %.2f ms failed %d growing %v",
			r.w.Name, rate, rg.Achieved, p99, failed, growing)
		if !rg.Pass {
			break
		}
		rate *= rungStep
	}
	return out
}

// maxRPSAtSLO is the achieved rate of the highest passing rung, or 0
// when no rung passed.
func maxRPSAtSLO(rungs []rung) float64 {
	best := 0.0
	for _, rg := range rungs {
		if rg.Pass && rg.Achieved > best {
			best = rg.Achieved
		}
	}
	return best
}
