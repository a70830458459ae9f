package resil

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"darknight/internal/gpu"
	"darknight/internal/obs"
)

// Schedule is a deterministic fault script: a named, seeded list of timed
// fault events the chaos runner applies to a fleet of gpu.ChaosDevice
// actuators. All times are integer milliseconds from schedule start, so a
// schedule is a plain JSON artifact that diffs well and replays exactly.
//
// Event kinds:
//
//	crash     device answers garbage from at_ms for duration_ms
//	latency   device gains delay_ms per-job latency for duration_ms
//	tamper    device corrupts results from at_ms for duration_ms
//	flap      device crashes and heals `count` times, one cycle per
//	          period_ms (down the first half, up the second)
//	partition every device in `devices` crashes together for duration_ms
//	          (a network partition as seen from the TEE)
type Schedule struct {
	Name string `json:"name"`
	// Seed is recorded for provenance: schedules generated from a seed
	// note it here so an incident artifact names its generator. The
	// runner itself is fully determined by the event list.
	Seed   int64        `json:"seed,omitempty"`
	Events []ChaosEvent `json:"events"`
}

// ChaosEvent is one scripted fault.
type ChaosEvent struct {
	AtMS       int64  `json:"at_ms"`
	Kind       string `json:"kind"`
	Device     int    `json:"device"`
	Devices    []int  `json:"devices,omitempty"`     // partition only
	DurationMS int64  `json:"duration_ms,omitempty"` // 0 = until schedule end
	DelayMS    int64  `json:"delay_ms,omitempty"`    // latency only
	PeriodMS   int64  `json:"period_ms,omitempty"`   // flap only
	Count      int    `json:"count,omitempty"`       // flap only (default 3)
}

// LoadSchedule reads and validates a schedule file.
func LoadSchedule(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("resil: bad chaos schedule %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("resil: %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the schedule's shape.
func (s *Schedule) Validate() error {
	for i, ev := range s.Events {
		switch ev.Kind {
		case "crash", "tamper":
		case "latency":
			if ev.DelayMS <= 0 {
				return fmt.Errorf("event %d: latency needs delay_ms > 0", i)
			}
		case "flap":
			if ev.PeriodMS <= 0 {
				return fmt.Errorf("event %d: flap needs period_ms > 0", i)
			}
		case "partition":
			if len(ev.Devices) == 0 {
				return fmt.Errorf("event %d: partition needs a devices list", i)
			}
		default:
			return fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
		if ev.AtMS < 0 {
			return fmt.Errorf("event %d: negative at_ms", i)
		}
	}
	return nil
}

// Duration returns the wall-clock span of the schedule: the latest point
// any event is still acting (heals included).
func (s *Schedule) Duration() time.Duration {
	var end int64
	for _, ev := range s.Events {
		t := ev.AtMS + ev.DurationMS
		if ev.Kind == "flap" {
			n := ev.Count
			if n <= 0 {
				n = 3
			}
			t = ev.AtMS + int64(n)*ev.PeriodMS
		}
		if t > end {
			end = t
		}
	}
	return time.Duration(end) * time.Millisecond
}

// action is one compiled primitive: at offset, apply fn.
type action struct {
	at     time.Duration
	device int
	detail string
	apply  func()
}

// compile lowers the schedule onto the actuators: every event becomes
// timed set/clear primitives. Events naming devices outside the fleet are
// skipped (schedules are reusable across cluster sizes).
func (s *Schedule) compile(devs []*gpu.ChaosDevice) []action {
	var acts []action
	add := func(atMS int64, dev int, detail string, fn func()) {
		if dev < 0 || dev >= len(devs) || devs[dev] == nil {
			return
		}
		acts = append(acts, action{at: time.Duration(atMS) * time.Millisecond,
			device: dev, detail: detail, apply: fn})
	}
	for _, ev := range s.Events {
		ev := ev
		switch ev.Kind {
		case "crash":
			d := devs // capture for closures below
			add(ev.AtMS, ev.Device, "crash", func() { d[ev.Device].SetDown(true) })
			if ev.DurationMS > 0 {
				add(ev.AtMS+ev.DurationMS, ev.Device, "heal", func() { d[ev.Device].SetDown(false) })
			}
		case "latency":
			d := devs
			delay := time.Duration(ev.DelayMS) * time.Millisecond
			add(ev.AtMS, ev.Device, fmt.Sprintf("latency +%v", delay),
				func() { d[ev.Device].SetDelay(delay) })
			if ev.DurationMS > 0 {
				add(ev.AtMS+ev.DurationMS, ev.Device, "latency cleared",
					func() { d[ev.Device].SetDelay(0) })
			}
		case "tamper":
			d := devs
			add(ev.AtMS, ev.Device, "tamper burst", func() { d[ev.Device].SetTamper(true) })
			if ev.DurationMS > 0 {
				add(ev.AtMS+ev.DurationMS, ev.Device, "tamper cleared",
					func() { d[ev.Device].SetTamper(false) })
			}
		case "flap":
			d := devs
			n := ev.Count
			if n <= 0 {
				n = 3
			}
			for i := 0; i < n; i++ {
				at := ev.AtMS + int64(i)*ev.PeriodMS
				add(at, ev.Device, fmt.Sprintf("flap down %d/%d", i+1, n),
					func() { d[ev.Device].SetDown(true) })
				add(at+ev.PeriodMS/2, ev.Device, fmt.Sprintf("flap up %d/%d", i+1, n),
					func() { d[ev.Device].SetDown(false) })
			}
		case "partition":
			d := devs
			for _, dev := range ev.Devices {
				dev := dev
				add(ev.AtMS, dev, "partition", func() { d[dev].SetDown(true) })
				if ev.DurationMS > 0 {
					add(ev.AtMS+ev.DurationMS, dev, "partition healed",
						func() { d[dev].SetDown(false) })
				}
			}
		}
	}
	sort.SliceStable(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	return acts
}

// Runner plays schedules against a fleet's chaos actuators, recording
// every applied action into the flight recorder and the chaos counter.
type Runner struct {
	devs []*gpu.ChaosDevice
	rec  *obs.FlightRecorder
	c    *Counters
}

// NewRunner builds a runner over the fleet's actuators (index = device
// id; nil entries are devices without a chaos wrapper). rec and c may be
// nil.
func NewRunner(devs []*gpu.ChaosDevice, rec *obs.FlightRecorder, c *Counters) *Runner {
	return &Runner{devs: devs, rec: rec, c: c}
}

// Play applies the schedule in real time, blocking until the last action
// has fired or ctx is done. On ctx cancellation every actuator is reset
// to clean (no fault outlives the run).
func (r *Runner) Play(ctx context.Context, s *Schedule) error {
	acts := s.compile(r.devs)
	start := time.Now()
	// Armed per action below; created stopped, because a timer left to fire
	// here would leave a tick in its channel that the first wait mistakes
	// for its own.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for _, a := range acts {
		wait := a.at - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				r.Reset()
				return ctx.Err()
			}
		} else {
			select {
			case <-ctx.Done():
				r.Reset()
				return ctx.Err()
			default:
			}
		}
		a.apply()
		if r.c != nil {
			r.c.ChaosActions.Add(1)
		}
		if r.rec != nil {
			r.rec.Record(obs.Event{Kind: obs.KindChaos, Subsystem: "resil",
				Device: a.device, Slot: -1,
				Detail: fmt.Sprintf("schedule %q t=%v: gpu %d %s", s.Name, a.at, a.device, a.detail)})
		}
	}
	return nil
}

// Start plays the schedule on a background goroutine; the returned stop
// function cancels it (resetting the actuators) and waits for exit.
func (r *Runner) Start(s *Schedule) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = r.Play(ctx, s)
	}()
	return func() {
		cancel()
		<-done
	}
}

// Reset returns every actuator to the clean state.
func (r *Runner) Reset() {
	for _, d := range r.devs {
		if d == nil {
			continue
		}
		d.SetDown(false)
		d.SetDelay(0)
		d.SetTamper(false)
	}
}
