package benchkit

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sizing host does not hold still. With no steal reported it changes
// speed for minutes at a time (infer_compute ran 6 700–12 800 rows/s over 90
// consecutive seconds), and for tens of seconds at a time it wakes sleeping
// goroutines late: the program's own dispatch time per 1 ms flight then
// reads 1.45–1.65 ms instead of 1.25–1.35, every latency of a paced workload
// grows by the same factor, and its CPU per row falls by a fifth. Every
// round therefore ends with a calibration run the way the workload runs, and
// each time is restated at the nominal value of what sets it:
//
//   - Where the CPU sets the pace the kernel below runs flat out, and CPU
//     time and wall-clock time share one speed: kernel passes per second.
//   - Where 1 ms devices do, the calibration is the benchmark's own gang
//     flights: coordinators fan a job out to goroutines that sleep 1 ms and
//     run a short kernel burst, and gather the replies, as gpu.Cluster does
//     with coded vectors. CPU time follows the CPU it costs per kernel pass,
//     wake-ups included (a burst-and-sleep kernel read correlation 0.90 with
//     infer_flight's CPU per row over 72 rounds across a slow spell; the
//     flat-out kernel run after the mostly idle second read −0.1 to 0.3).
//     Wall-clock time follows the median flight time: over six runs of
//     infer_open_high, three in each state, p50 latency ranged 4.15–4.75 ms
//     and p50 ÷ flight time 3.22–3.34.
//
// The calibration is part of the benchmark and shares no code with the
// program, so no change to the program can move it; it allocates nothing
// inside its loops, so the state of the program's heap cannot either.
const (
	// nominalFlat is the flat-out kernel's rate, in passes per second, on
	// the sizing host in its fast state.
	nominalFlat = 0.52e6
	// nominalFlightCPUNs is the CPU time a reference flight costs per kernel
	// pass there, wake-ups included; nominalFlightMs its median duration.
	nominalFlightCPUNs = 4000
	nominalFlightMs    = 1.29

	// Reference flights: as many lanes as the paced inference deployments
	// run (workers × depth 2), a gang the size of K+M+E at K=4 M=1 E=1, and
	// a burst the size of one device's share of a small layer (≈ 15 µs).
	flightLanes = 2 * workers
	flightGang  = 6
	flightBurst = 4
)

// calibSink keeps the calibration kernel's result alive.
var calibSink atomic.Uint64

// kernel makes passes passes over v — fill it with multiply-adds, fold it —
// and returns the running fold. v holds 2048 words (16 KB).
func kernel(v []uint64, acc uint64, passes int) uint64 {
	for p := 0; p < passes; p++ {
		c := acc | 1
		for i := range v {
			v[i] = c*uint64(i) + acc
		}
		for _, x := range v {
			acc += x * c >> 7
		}
	}
	return acc
}

// calibrate measures how fast the host is right now, as multiples of the
// nominal speeds: cpu for CPU time, wall for wall-clock time. pause = 0
// calibrates a workload whose pace the CPU sets, pause > 0 one paced by
// devices of that latency.
func calibrate(dur, pause time.Duration) (cpu, wall float64) {
	if pause > 0 {
		return referenceFlights(dur, pause)
	}
	var passes atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(acc uint64) {
			defer wg.Done()
			v := make([]uint64, 2048)
			n := int64(0)
			for time.Now().Before(deadline) {
				acc = kernel(v, acc, 16)
				n += 16
			}
			passes.Add(n)
			calibSink.Add(acc)
		}(uint64(g) + 1)
	}
	wg.Wait()
	speed := float64(passes.Load()) / time.Since(start).Seconds() / nominalFlat
	return speed, speed
}

// referenceFlights runs gang flights for dur on flightLanes lanes: each
// lane's coordinator hands a job to flightGang device goroutines, which sleep
// for pause, run a kernel burst and reply, and waits for all of them.
func referenceFlights(dur, pause time.Duration) (cpu, wall float64) {
	var passes atomic.Int64
	var mu sync.Mutex
	var flightMs []float64
	cpu0 := cpuTime()
	deadline := time.Now().Add(dur)
	var lanes sync.WaitGroup
	for l := 0; l < flightLanes; l++ {
		lanes.Add(1)
		go func(lane uint64) {
			defer lanes.Done()
			jobs := make(chan struct{})
			done := make(chan struct{}, flightGang)
			var devices sync.WaitGroup
			for d := 0; d < flightGang; d++ {
				devices.Add(1)
				go func(acc uint64) {
					defer devices.Done()
					v := make([]uint64, 2048)
					n := int64(0)
					for range jobs {
						time.Sleep(pause)
						acc = kernel(v, acc, flightBurst)
						n += flightBurst
						done <- struct{}{}
					}
					passes.Add(n)
					calibSink.Add(acc)
				}(lane*flightGang + uint64(d) + 1)
			}
			var mine []float64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				for d := 0; d < flightGang; d++ {
					jobs <- struct{}{}
				}
				for d := 0; d < flightGang; d++ {
					<-done
				}
				mine = append(mine, float64(time.Since(t0))/float64(time.Millisecond))
			}
			close(jobs)
			devices.Wait()
			mu.Lock()
			flightMs = append(flightMs, mine...)
			mu.Unlock()
		}(uint64(l))
	}
	lanes.Wait()
	cpu = ratio(float64(passes.Load())*nominalFlightCPUNs, float64(cpuTime()-cpu0))
	wall = ratio(nominalFlightMs, Median(flightMs))
	return cpu, wall
}
