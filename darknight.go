// Package darknight is a from-scratch reproduction of "DarKnight: An
// Accelerated Framework for Privacy and Integrity Preserving Deep Learning
// Using Trusted Hardware" (MICRO 2021).
//
// DarKnight trains and serves DNNs on untrusted GPUs while raw inputs stay
// visible only inside a trusted execution environment: the TEE linearly
// combines K private inputs with M uniform noise vectors over the prime
// field F_p (matrix masking), offloads the bilinear heavy lifting on the
// coded data, and decodes the exact results. One redundant equation makes
// tampered GPU results detectable.
//
// This package is the public facade over the internal subsystems (masking
// code, software enclave, simulated GPU cluster, DNN framework, analytic
// performance model). See DESIGN.md for the architecture and EXPERIMENTS.md
// for the paper-artifact reproduction index.
//
//	model := darknight.TinyCNN(3, 32, 32, 10, 1)
//	sys, _ := darknight.NewSystem(model, darknight.Config{VirtualBatch: 2})
//	loss, _ := sys.TrainBatch(batch)
package darknight

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/sched"
)

// Config selects the privacy/integrity operating point of a System.
type Config struct {
	// VirtualBatch is K: how many private inputs are coded together.
	VirtualBatch int
	// Collusion is M: the tolerated size of a GPU coalition (default 1).
	Collusion int
	// Redundancy is E: extra coded inputs for integrity verification
	// (0 = off, 1 = the paper's scheme). E >= 1 detects a tampered forward
	// result; E >= 2 also names the device and, with recovery, decodes
	// around it. Gradients are verified only with StragglerSlack >= 1 (and
	// then only when both backward windows complete): at slack 0 a device
	// that tampers only with gradients goes unseen.
	Redundancy int
	// GPUs is the cluster size K'; 0 sizes it minimally (K+M+E).
	GPUs int
	// MaliciousGPUs marks device indices that corrupt results — used to
	// demonstrate integrity detection and fleet quarantine.
	MaliciousGPUs []int
	// FaultPolicy overrides how MaliciousGPUs corrupt (zero value picks
	// corrupt-every-result). The probabilistic mode with a Seed gives
	// reproducible fault injection.
	FaultPolicy gpu.FaultPolicy
	// SlowGPUs marks device indices that answer late by SlowDelay —
	// deterministic stragglers for quorum/speculation experiments.
	SlowGPUs []int
	// SlowDelay is the added latency of SlowGPUs (default 5ms when
	// SlowGPUs is set).
	SlowDelay time.Duration
	// EnclaveBytes bounds the software enclave's protected memory;
	// 0 selects the SGX default (~93 MB usable), negative disables
	// memory accounting.
	EnclaveBytes int64
	// LearningRate and Momentum drive the SGD optimizer.
	LearningRate, Momentum float64
	// TrainPipelineDepth is how many virtual batches TrainBatch keeps in
	// flight: that many ride the encode→dispatch→decode stages of both
	// passes at once, each on its own device gang, with per-lane gradient
	// isolation and virtual-batch-order Algorithm-2 aggregation — weights
	// bit-identical at every depth. 0 and 1 both mean one lane. With
	// GPUs = 0 the cluster is sized depth × (K+M+E) + SpareGPUs so the
	// overlap is not starved of devices.
	TrainPipelineDepth int
	// ManagedFleet routes training dispatch through a self-healing
	// fleet.Manager — per-batch gang grants, health tracking, quarantine of
	// attributed tamperers, straggler accounting — instead of the raw
	// cluster, at any TrainPipelineDepth.
	ManagedFleet bool
	// SpareGPUs adds devices beyond the gang sizing — headroom for
	// quarantine survival under a managed fleet.
	SpareGPUs int
	// StragglerSlack lets a forward dispatch decode after all but this many
	// coded responses arrive, and arms the backward dual-window quorum
	// (decode from the primary or the redundant equation set, whichever
	// completes first). Needs Redundancy >= 2 for the forward path and
	// >= 1 for the backward window. It applies on a raw cluster and a
	// ManagedFleet alike; the managed fleet additionally counts straggler
	// events. At slack E−1 a forward decode keeps one parity check, which
	// detects a tamper but cannot name it; the audit then waits for the
	// laggards on devices whose calls cannot block and names the culprit
	// from the larger set.
	StragglerSlack int
	// SlowAll marks every device slow by SlowDelay — the uniform
	// per-dispatch device-latency regime pipelined training hides.
	SlowAll bool
	// Observability switches on training-path tracing, the exportable
	// metrics registry, and the chaos flight recorder. Zero value = off,
	// and the hot path stays at its untraced cost.
	Observability ObservabilityConfig
	// Chaos wraps every device with a runtime fault-injection actuator
	// (gpu.ChaosDevice): crashes, latency spikes, tamper bursts and
	// flapping can then be scripted against a live deployment with a chaos
	// schedule (Server.PlayChaos). The wrappers are inert until a schedule
	// flips them, so a clean run costs three atomic loads per dispatch.
	Chaos bool
	// Seed drives all randomness.
	Seed int64
}

// Example is one labelled image (CHW layout).
type Example = dataset.Example

// System owns a model, a masked training runtime and a masked inference
// runtime over it, a software enclave and a simulated GPU cluster —
// optionally under self-healing fleet management.
type System struct {
	model   *nn.Model
	pipe    *sched.TrainPipeline
	src     sched.GangSource
	inf     *sched.Inferencer
	fm      *fleet.Manager
	encl    *enclave.Enclave
	cluster *gpu.Cluster
	opt     *nn.SGD
	obs     *obs.Observability
	msrv    *obs.MetricsServer
	cfg     Config
}

// NewSystem wires a DarKnight deployment around a model.
func NewSystem(model *Model, cfg Config) (*System, error) {
	if cfg.VirtualBatch == 0 {
		cfg.VirtualBatch = 2
	}
	if cfg.Collusion == 0 {
		cfg.Collusion = 1
	}
	gang := cfg.VirtualBatch + cfg.Collusion + cfg.Redundancy
	depth := max(1, cfg.TrainPipelineDepth)
	if cfg.GPUs == 0 {
		// Each lane holds a gang in flight; size the default cluster so the
		// overlap is not starved of devices.
		cfg.GPUs = gang*depth + cfg.SpareGPUs
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.05
	}
	if cfg.SlowAll {
		cfg.SlowGPUs = make([]int, cfg.GPUs)
		for i := range cfg.SlowGPUs {
			cfg.SlowGPUs[i] = i
		}
	}

	cluster, _, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	encl, err := buildEnclave(cfg)
	if err != nil {
		return nil, err
	}

	scfg := sched.Config{
		VirtualBatch:   cfg.VirtualBatch,
		Collusion:      cfg.Collusion,
		Redundancy:     cfg.Redundancy,
		StragglerSlack: cfg.StragglerSlack,
		Seed:           cfg.Seed,
	}
	if err := scfg.Validate(cluster.Size()); err != nil {
		return nil, err
	}
	pipe, err := sched.NewTrainPipeline(scfg, model.m, encl, "sys/", depth)
	if err != nil {
		return nil, err
	}
	inf, err := sched.NewInferencer(scfg, model.m, encl, "sys/")
	if err != nil {
		pipe.Close()
		return nil, err
	}
	s := &System{
		model:   model.m,
		pipe:    pipe,
		src:     sched.SingleFleetSource{F: cluster},
		inf:     inf,
		encl:    encl,
		cluster: cluster,
		opt:     nn.NewSGD(cfg.LearningRate, cfg.Momentum),
		cfg:     cfg,
	}
	if cfg.ManagedFleet {
		s.fm = fleet.NewManager(cluster, fleet.Config{Seed: cfg.Seed})
		s.src = &trainGangSource{m: s.fm, gang: gang}
	}
	if ob := cfg.Observability.build(cfg.Seed); ob != nil {
		s.obs = ob
		pipe.SetTracer(ob.Tracer)
		pipe.SetObserver(ob.Recorder)
		inf.SetObserver(ob.Recorder)
		if s.fm != nil {
			s.fm.SetObserver(ob.Recorder)
			s.fm.RegisterMetrics(ob.Registry)
		}
		s.registerMetrics(ob.Registry)
		if addr := cfg.Observability.MetricsAddr; addr != "" {
			s.msrv, err = ob.Serve(addr)
			if err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	return s, nil
}

// registerMetrics exports the training-path counters as scrape-time
// closures: phase breakdown, offload count, noise-pool hit/miss
// accounting.
func (s *System) registerMetrics(r *obs.Registry) {
	r.SampleFunc("darknight_train_phase_seconds_total",
		"Cumulative TEE-side time by phase across training offloads.", "counter",
		func() []obs.Sample {
			ph := s.TrainPhases()
			return []obs.Sample{
				{Labels: map[string]string{"phase": "encode"}, Value: ph.Encode.Seconds()},
				{Labels: map[string]string{"phase": "dispatch"}, Value: ph.Dispatch.Seconds()},
				{Labels: map[string]string{"phase": "decode"}, Value: ph.Decode.Seconds()},
				{Labels: map[string]string{"phase": "wall"}, Value: ph.Wall.Seconds()},
			}
		})
	r.CounterFunc("darknight_train_offloads_total",
		"Bilinear-layer offload dispatches on the training path.",
		func() float64 { return float64(s.TrainPhases().Offloads) })
	sched.RegisterPoolMetrics(r, s.pipe.PoolStats)
}

// trainGangSource adapts a fleet.Manager into the training pipeline's
// per-batch gang supply: every in-flight virtual batch runs on its own
// granted gang, and each batch's integrity verdict feeds device health on
// release (attributed culprits quarantine; unattributable violations cast
// gang-wide suspicion).
type trainGangSource struct {
	m    *fleet.Manager
	gang int
}

func (s *trainGangSource) Acquire() (sched.Fleet, error) {
	return s.m.Acquire(context.Background(), "train", s.gang)
}

func (s *trainGangSource) Release(f sched.Fleet, culprits []int, err error) {
	g := f.(*fleet.Grant)
	sched.ReportOutcome(g, culprits, err)
	g.Release()
}

// buildCluster assembles the simulated device fleet a Config describes,
// wrapping the marked indices with fault policies and straggler delays.
// With cfg.Chaos every honest device is first wrapped (innermost) in a
// runtime fault-injection actuator, so a slow wrapper stays outermost and
// charges its launch delay once per trip; the returned slice holds the
// handles a chaos runner drives, index = device id (nil without Chaos).
func buildCluster(cfg Config) (*gpu.Cluster, []*gpu.ChaosDevice, error) {
	devs := make([]gpu.Device, cfg.GPUs)
	var chaos []*gpu.ChaosDevice
	for i := range devs {
		devs[i] = gpu.NewHonest(i)
		if cfg.Chaos {
			chaos = append(chaos, gpu.NewChaos(devs[i]))
			devs[i] = chaos[i]
		}
	}
	policy := cfg.FaultPolicy
	if policy.EveryNth == 0 && policy.Probability == 0 {
		policy = gpu.FaultPolicy{EveryNth: 1}
	}
	for _, idx := range cfg.MaliciousGPUs {
		if idx < 0 || idx >= len(devs) {
			return nil, nil, fmt.Errorf("darknight: malicious GPU index %d outside cluster of %d", idx, len(devs))
		}
		devs[idx] = gpu.NewMalicious(devs[idx], policy)
	}
	delay := cfg.SlowDelay
	if delay == 0 {
		delay = 5 * time.Millisecond
	}
	for _, idx := range cfg.SlowGPUs {
		if idx < 0 || idx >= len(devs) {
			return nil, nil, fmt.Errorf("darknight: slow GPU index %d outside cluster of %d", idx, len(devs))
		}
		devs[idx] = gpu.NewSlow(devs[idx], delay)
	}
	return gpu.NewCluster(devs...), chaos, nil
}

// buildEnclave creates the software enclave a Config asks for (nil when
// memory accounting is disabled).
func buildEnclave(cfg Config) (*enclave.Enclave, error) {
	if cfg.EnclaveBytes < 0 {
		return nil, nil
	}
	cap := cfg.EnclaveBytes
	if cap == 0 {
		cap = enclave.DefaultEPCBytes
	}
	return enclave.New(cap)
}

// AggregationStats reports what Algorithm 2 did for one large batch,
// including the tail examples dropped by the K-granularity constraint.
type AggregationStats = sched.AggregationStats

// TrainPhaseStats is the cumulative encode/dispatch/decode/wall breakdown
// of the training hot path; Overlap() on it is the pipelining win.
type TrainPhaseStats = sched.PhaseStats

// TrainBatch runs one private training step over a batch (processed as
// virtual batches of K with Algorithm 2 aggregation) and returns the mean
// loss. With TrainPipelineDepth >= 2 the virtual batches are pipelined
// data-parallel across device gangs — same weights, bit for bit. It fails
// with an integrity error if GPU results were tampered with and
// Redundancy >= 1.
func (s *System) TrainBatch(batch []Example) (float64, error) {
	loss, _, err := s.TrainBatchStats(batch)
	return loss, err
}

// TrainBatchStats is TrainBatch surfacing the Algorithm-2 aggregation
// stats — most notably DroppedExamples, the tail examples beyond the last
// full virtual batch that the coded path cannot process (size batches as
// multiples of K to avoid dropping data).
func (s *System) TrainBatchStats(batch []Example) (float64, AggregationStats, error) {
	return s.pipe.TrainLargeBatch(s.src, batch, s.opt, 0)
}

// TrainPhases returns the training path's phase breakdown, summed across
// its lanes.
func (s *System) TrainPhases() TrainPhaseStats { return s.pipe.PhaseStats() }

// FleetStats returns the training fleet's health snapshot (zero value when
// ManagedFleet is off).
func (s *System) FleetStats() FleetStats {
	if s.fm == nil {
		return FleetStats{}
	}
	return s.fm.Stats()
}

// Close ends the System: it stops the training and inference runtimes'
// background noise generators and the metrics listener, if one is serving.
// Training and prediction fail afterwards. Safe to call more than once.
func (s *System) Close() {
	s.msrv.Close()
	s.pipe.Close()
	s.inf.Close()
}

// Predict privately classifies a virtual batch of exactly K images on the
// raw cluster. With tracing on, each sampled call yields a "predict" root
// span carrying its offload trees, and an "error" attribute if it failed.
func (s *System) Predict(images [][]float64) ([]int, error) {
	sp := s.obs.StartTrace("predict")
	t, err := s.inf.SubmitWithin(s.cluster, images, sp, time.Time{})
	if err == nil {
		err = t.Wait()
	}
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return t.Classes(), nil
}

// Evaluate computes top-1 accuracy with the plain (non-masked) forward
// pass; evaluation data is assumed non-sensitive.
func (s *System) Evaluate(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range examples {
		if nn.Argmax(s.model.Forward(ex.Image, false)) == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// EnclaveStats returns sealing/paging counters (zero value if accounting
// is disabled).
func (s *System) EnclaveStats() enclave.Stats {
	if s.encl == nil {
		return enclave.Stats{}
	}
	return s.encl.Stats()
}

// GPUTraffic returns the cluster's total TEE<->GPU channel usage.
func (s *System) GPUTraffic() gpu.Traffic { return s.cluster.TotalTraffic() }

// Model wraps a trainable network.
type Model struct{ m *nn.Model }

// Name returns the architecture name.
func (m *Model) Name() string { return m.m.Name }

// ParamCount returns the learnable element count.
func (m *Model) ParamCount() int64 { return m.m.ParamCount() }

// Weights returns a flat copy of the model's learnable parameters in
// declaration order — for checkpoint comparison (the pipelined trainer's
// bit-identity guarantee is checked against it).
func (m *Model) Weights() []float64 {
	var out []float64
	for _, p := range m.m.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// CopyWeightsFrom copies the learned parameters of src into m. The two
// models must share an architecture (same constructor and scale). It is how
// trained weights are propagated into a serving fleet's per-worker model
// replicas.
func (m *Model) CopyWeightsFrom(src *Model) error {
	dst, from := m.m.Params(), src.m.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("darknight: architectures differ: %d vs %d param tensors", len(dst), len(from))
	}
	for i := range dst {
		if dst[i].W.Size() != from[i].W.Size() {
			return fmt.Errorf("darknight: param %q: size %d vs %d", dst[i].Name, dst[i].W.Size(), from[i].W.Size())
		}
		copy(dst[i].W.Data, from[i].W.Data)
	}
	return nil
}

// TinyCNN builds the smallest useful CNN (quickstart-scale).
func TinyCNN(c, h, w, classes int, seed int64) *Model {
	return &Model{m: nn.TinyCNN(c, h, w, classes, rand.New(rand.NewSource(seed)))}
}

// VGG16 builds a width-scaled VGG16-style model.
func VGG16(c, h, w, classes, width int, seed int64) *Model {
	return &Model{m: nn.VGG16Scaled(c, h, w, classes, width, rand.New(rand.NewSource(seed)))}
}

// ResNet50 builds a width-scaled ResNet-style model with bottleneck
// residual blocks and batch normalization.
func ResNet50(c, h, w, classes, width int, seed int64) *Model {
	return &Model{m: nn.ResNet50Scaled(c, h, w, classes, width, rand.New(rand.NewSource(seed)))}
}

// MobileNetV2 builds a width-scaled MobileNetV2-style model with inverted
// residuals and depthwise convolutions.
func MobileNetV2(c, h, w, classes, width int, seed int64) *Model {
	return &Model{m: nn.MobileNetV2Scaled(c, h, w, classes, width, rand.New(rand.NewSource(seed)))}
}

// DeepMLP builds a factorized deep MLP: two stacks of three back-to-back
// Dense layers and a head, 7 bilinear layers in all — the most offloads
// per virtual batch among the bundled models, every one of them riding
// the batch's single gang flight.
func DeepMLP(c, h, w, classes, width int, seed int64) *Model {
	return &Model{m: nn.DeepMLP(c, h, w, classes, width, rand.New(rand.NewSource(seed)))}
}

// SyntheticDataset generates a learnable labelled image set (the synthetic
// CIFAR substitution documented in DESIGN.md).
func SyntheticDataset(n, classes, c, h, w int, seed int64) []Example {
	d := dataset.SyntheticCIFAR(rand.New(rand.NewSource(seed)), n, classes, c, h, w, 0.05)
	return d.Items
}
