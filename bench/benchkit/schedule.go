package benchkit

import (
	"math/rand"
	"time"
)

// TenantShare is one tenant's share of the generated traffic.
type TenantShare struct {
	Name  string
	Share float64
}

// Arrival is one scheduled request of an open-loop slice.
type Arrival struct {
	// Due is the offset from the slice start at which the request is due;
	// its latency is timed from this instant, not from when it was sent.
	Due    time.Duration
	Tenant string
	// Image indexes the request set.
	Image int
}

// PoissonSchedule draws the arrivals of one open-loop slice: exponential
// inter-arrival gaps at the given rate over dur, each arrival tagged with a
// tenant drawn by share and an image drawn uniformly from a request set of
// nImages. It is a pure function of its arguments — the same seed gives the
// same schedule on every host.
func PoissonSchedule(seed int64, rate float64, dur time.Duration, nImages int, tenants []TenantShare) []Arrival {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for _, t := range tenants {
		total += t.Share
	}
	out := make([]Arrival, 0, int(rate*dur.Seconds()*1.1)+16)
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return out
		}
		a := Arrival{Due: due, Image: rng.Intn(nImages)}
		pick := rng.Float64() * total
		for _, t := range tenants {
			a.Tenant = t.Name
			if pick < t.Share {
				break
			}
			pick -= t.Share
		}
		out = append(out, a)
	}
}
