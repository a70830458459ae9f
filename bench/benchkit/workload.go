package benchkit

import (
	"fmt"
	"math/rand"
	"time"

	"darknight"
	"darknight/internal/nn"
)

// Kind is how a workload generates load.
type Kind int

const (
	// ClosedLoop clients each wait for a reply before sending again.
	ClosedLoop Kind = iota
	// OpenLoop sends on a Poisson schedule regardless of replies.
	OpenLoop
	// Train is a single caller looping over TrainBatch.
	Train
)

// Every workload uses the 1×8×8, 4-class synthetic input.
const (
	imgC, imgH, imgW, classes = 1, 8, 8, 4

	// modelSeed and deploySeed are fixed: -seed only generates the request
	// images, the arrival schedule and the tenant tags; the program keeps
	// its own Config.Seed.
	modelSeed  = 1
	deploySeed = 7
	// trainSetSeed generates the examples the set-up steps learn from.
	trainSetSeed = 1000

	workers    = 2 // regardless of host
	trainBatch = 16
	// setupSteps private training steps make the logits separate, so the
	// served class is a meaningful thing to compare.
	setupSteps = 64
	// checkSteps is the training pre-phase whose loss must fall below a
	// quarter of the first step's. At the default learning rate vgg only
	// gets there with momentum; 0.8 reaches 0.12 of the first loss at worst
	// over seeds 1–12 and stays finite for 1500 steps, where 0.9 diverged
	// on deep (seed 4) inside the window.
	checkSteps    = 16
	trainMomentum = 0.8

	// maxOutstanding bounds the open-loop generator: a request due while
	// this many are in flight is counted as refused, not sent.
	maxOutstanding = 4096
	// requestSetSize is how many distinct images a run cycles through.
	requestSetSize = 1024
)

// Workload is one named set of inputs and the deployment it runs against.
type Workload struct {
	Name, Why string
	Kind      Kind
	Arch      string
	K, M, E   int
	// CPUBound marks the zero-device-latency workloads, whose pace the CPU
	// sets: every time they report is restated at nominal host speed, and
	// their coding_overhead_x is a ratio of rows per second. On the others a
	// 1 ms sleep or the generator sets the pace: only their CPU time is
	// restated, their float baseline and calibration kernel are paced by the
	// same sleep, and their coding_overhead_x is a ratio of CPU per row.
	CPUBound bool
	// Clients is the closed-loop client count; Rate the open-loop arrival
	// rate in requests per second.
	Clients int
	Rate    float64
	// Limit is the latency limit behind slo_met_frac: a request (or a
	// training step) answered later than this after it was due misses.
	Limit time.Duration
	// Tenants is the open-loop traffic mix (nil = the default tenant).
	Tenants []TenantShare

	server func() darknight.ServerConfig
	system func() darknight.Config
}

// inferLimit is the latency limit of the inference workloads, from due
// time; trainLimit is the limit on one 16-example training step.
const (
	inferLimit = 25 * time.Millisecond
	trainLimit = 250 * time.Millisecond
)

func openServer() darknight.ServerConfig {
	return darknight.ServerConfig{
		Config: darknight.Config{VirtualBatch: 4, Collusion: 1, Redundancy: 2,
			SlowDelay: deviceLatency, Seed: deploySeed},
		Workers: workers, PipelineDepth: 2, SpareGPUs: 2,
		StragglerSlack: 1, Recover: true, SlowAll: true,
		MaxWait:       2 * time.Millisecond,
		Tenants:       []darknight.Tenant{{Name: "a", Weight: 3}, {Name: "b", Weight: 1}},
		Observability: darknight.ObservabilityConfig{Enabled: true, TraceSample: 0.01},
		Resilience:    darknight.ResilienceConfig{Budget: 250 * time.Millisecond, RetryMax: 1},
		Arch:          "tiny",
	}
}

var openTenants = []TenantShare{{Name: "a", Share: 0.75}, {Name: "b", Share: 0.25}}

// Workloads are the six named workloads, in the order they run.
var Workloads = []Workload{
	{
		Name: "infer_compute", Kind: ClosedLoop, CPUBound: true, Arch: "vgg", K: 4, M: 1, E: 1, Clients: 8, Limit: inferLimit,
		Why: "CPU-bound closed loop (vgg, zero device latency, 2 serial workers): field/masking/quant/nn kernels and hot-path allocation do almost all the work",
		server: func() darknight.ServerConfig {
			return darknight.ServerConfig{
				Config:  darknight.Config{VirtualBatch: 4, Collusion: 1, Redundancy: 1, Seed: deploySeed},
				Workers: workers, Arch: "vgg",
			}
		},
	},
	{
		Name: "infer_flight", Kind: ClosedLoop, Arch: "deep", K: 4, M: 1, E: 1, Clients: 16, Limit: inferLimit,
		Why: "flight-bound closed loop (deep, 1 ms devices, fused, depth-2 lanes): sched lanes, gpu block flights and fleet grants set the pace; the control for every kernel change",
		server: func() darknight.ServerConfig {
			return darknight.ServerConfig{
				Config: darknight.Config{VirtualBatch: 4, Collusion: 1, Redundancy: 1,
					SlowDelay: deviceLatency, Seed: deploySeed},
				Workers: workers, PipelineDepth: 2, Fuse: true, SlowAll: true, Arch: "deep",
			}
		},
	},
	{
		Name: "infer_open_low", Kind: OpenLoop, Arch: "tiny", K: 4, M: 1, E: 2, Rate: 1000, Limit: inferLimit,
		Tenants: openTenants,
		Why:     "production shape at a quarter of capacity (Poisson 1000 req/s, two tenants, quorum, obs and resilience on): batches flush half empty, so waiting longer for riders shows as a latency loss",
		server:  openServer,
	},
	{
		Name: "infer_open_high", Kind: OpenLoop, Arch: "tiny", K: 4, M: 1, E: 2, Rate: 3000, Limit: inferLimit,
		Tenants: openTenants,
		Why:     "same deployment at two thirds of capacity (Poisson 3000 req/s): queueing regime where fair-share grants contend and tail latency rises before throughput falls",
		server:  openServer,
	},
	{
		Name: "train_compute", Kind: Train, CPUBound: true, Arch: "vgg", K: 2, M: 1, E: 1, Limit: trainLimit,
		Why: "the paper's headline use, CPU-bound (vgg, serial trainer, zero latency): backward decode, GradWeightsField and Algorithm-2 sealing, so a forward-only gain that costs backward shows",
		system: func() darknight.Config {
			return darknight.Config{VirtualBatch: 2, Collusion: 1, Redundancy: 1, Momentum: trainMomentum, Seed: deploySeed}
		},
	},
	{
		Name: "train_flight", Kind: Train, Arch: "deep", K: 2, M: 1, E: 2, Limit: trainLimit,
		Why: "flight-bound training (deep, 1 ms devices, depth-2 lanes on a managed fleet with quorum): backward flights, dual-window quorum and per-lane gradients, the dispatch half no inference workload touches",
		system: func() darknight.Config {
			return darknight.Config{VirtualBatch: 2, Collusion: 1, Redundancy: 2,
				TrainPipelineDepth: 2, ManagedFleet: true, SpareGPUs: 2, StragglerSlack: 1,
				SlowAll: true, SlowDelay: deviceLatency, Momentum: trainMomentum, Seed: deploySeed}
		},
	},
}

// deviceLatency is the SlowDelay of every workload that has one.
const deviceLatency = time.Millisecond

// pause is the sleep that paces the workload's float baseline and
// calibration kernel: none where the CPU sets the pace.
func (w *Workload) pause() time.Duration {
	if w.CPUBound {
		return 0
	}
	return deviceLatency
}

// FindWorkload returns the workload of that name.
func FindWorkload(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// buildNN constructs the internal model an arch name stands for, with the
// geometry darknight.BuildModel uses, so a probe or a float baseline runs
// the same layers as the served model.
func buildNN(arch string, seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	switch arch {
	case "tiny":
		return nn.TinyCNN(imgC, imgH, imgW, classes, rng)
	case "vgg":
		return nn.VGG16Scaled(imgC, imgH, imgW, classes, 1, rng)
	case "deep":
		return nn.DeepMLP(imgC, imgH, imgW, classes, 16, rng)
	}
	panic("benchkit: no internal model for arch " + arch)
}

// floatTwin returns an un-coded float model weight-identical to m: the
// reference every served class is compared with, and the baseline
// coding_overhead_x divides by.
func floatTwin(arch string, m *darknight.Model) (*nn.Model, error) {
	twin := buildNN(arch, modelSeed)
	flat := m.Weights()
	off := 0
	for _, p := range twin.Params() {
		n := copy(p.W.Data, flat[off:])
		if n != len(p.W.Data) {
			return nil, fmt.Errorf("float twin of %s: ran out of weights at %s", arch, p.Name)
		}
		off += n
	}
	if off != len(flat) {
		return nil, fmt.Errorf("float twin of %s: %d weights left over", arch, len(flat)-off)
	}
	return twin, nil
}
