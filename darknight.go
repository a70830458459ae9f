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
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"darknight/internal/dataset"
	"darknight/internal/enclave"
	"darknight/internal/fleet"
	"darknight/internal/gpu"
	"darknight/internal/nn"
	"darknight/internal/obs"
	"darknight/internal/obs/replay"
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
	// laggards and names the culprit from the larger set.
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
	// Only a Server reads it; NewSystem rejects it.
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
	deployment
	model *nn.Model
	pipe  *sched.TrainPipeline
	src   sched.GangSource
	inf   *sched.Inferencer
	opt   *nn.SGD
}

// NewSystem wires a DarKnight deployment around a model. It rejects the
// Config fields only a Server reads: Chaos, Observability.SLO and
// Observability.SnapshotWeights.
func NewSystem(model *Model, cfg Config) (*System, error) {
	if err := unreadBySystem(&cfg); err != nil {
		return nil, err
	}
	depth := max(1, cfg.TrainPipelineDepth)
	d, err := newDeployment(cfg, depth)
	if err != nil {
		return nil, err
	}
	pipe, err := sched.NewTrainPipeline(d.schedConfig(), model.m, d.encl, depth)
	if err != nil {
		return nil, err
	}
	inf, err := sched.NewInferencer(d.schedConfig(), model.m, d.encl, "")
	if err != nil {
		pipe.Close()
		return nil, err
	}
	s := &System{
		deployment: d,
		model:      model.m,
		pipe:       pipe,
		src:        sched.SingleFleetSource{F: d.cluster},
		inf:        inf,
		opt:        nn.NewSGD(cmp.Or(cfg.LearningRate, 0.05), cfg.Momentum),
	}
	if cfg.ManagedFleet {
		s.fm = fleet.NewManager(s.cluster, fleet.Config{Seed: cfg.Seed})
		s.src = &trainGangSource{m: s.fm, gang: s.gang()}
	}
	if ob := s.obs; ob != nil {
		pipe.SetTracer(ob.Tracer)
		pipe.SetObserver(ob.Recorder)
		inf.SetObserver(ob.Recorder)
		if s.fm != nil {
			s.fm.SetObserver(ob.Recorder)
			s.fm.RegisterMetrics(ob.Registry)
		}
		s.registerMetrics(ob.Registry)
	}
	if err := s.listen(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// unreadBySystem names the first field set on a Config that NewSystem
// would otherwise ignore: the ones only a Server reads.
func unreadBySystem(c *Config) error {
	for _, f := range []struct {
		set  bool
		name string
	}{
		{c.Chaos, "Chaos"},
		{!reflect.ValueOf(c.Observability.SLO).IsZero(), "Observability.SLO"},
		{c.Observability.SnapshotWeights, "Observability.SnapshotWeights"},
	} {
		if f.set {
			return fmt.Errorf("darknight: a system does not read Config.%s: set it on a ServerConfig for NewServer", f.name)
		}
	}
	return nil
}

// deployment is one resolved Config and what it builds: the cluster, the
// enclave and the observability bundle a System and a Server both stand
// on. newDeployment applies every default and derived value once, records
// the device composition as the obs.ClusterInfo a snapshot carries, and
// builds the cluster from that record with the builder replay uses, so a
// replayed cluster is the live one.
type deployment struct {
	cfg     Config             // resolved: K, M, GPUs, SlowGPUs, FaultPolicy and SlowDelay set
	info    obs.ClusterInfo    // the composition cluster was built from
	cluster *gpu.Cluster       // built from info by replay.BuildCluster
	chaos   []*gpu.ChaosDevice // per-device fault actuators, index = device id; nil without Config.Chaos
	encl    *enclave.Enclave   // nil when memory accounting is disabled
	fm      *fleet.Manager     // nil on a System without ManagedFleet
	obs     *obs.Observability // nil when observability is off
	msrv    *obs.MetricsServer // nil until listen serves MetricsAddr
}

// newDeployment resolves cfg for lanes gangs in flight at once — a cluster
// left unsized gets lanes × (K+M+E) + SpareGPUs devices — and builds the
// cluster, the enclave and the observability bundle it describes.
func newDeployment(cfg Config, lanes int) (deployment, error) {
	d := deployment{cfg: cfg}
	c := &d.cfg
	c.VirtualBatch = cmp.Or(c.VirtualBatch, 2)
	c.Collusion = cmp.Or(c.Collusion, 1)
	if c.GPUs == 0 {
		// Each lane holds a gang in flight; size the default cluster so the
		// overlap is not starved of devices.
		c.GPUs = lanes*d.gang() + c.SpareGPUs
	}
	if c.SlowAll {
		c.SlowGPUs = make([]int, c.GPUs)
		for i := range c.SlowGPUs {
			c.SlowGPUs[i] = i
		}
	}
	if c.FaultPolicy.EveryNth == 0 && c.FaultPolicy.Probability == 0 {
		c.FaultPolicy = gpu.FaultPolicy{EveryNth: 1} // corrupt every result
	}
	c.SlowDelay = cmp.Or(c.SlowDelay, 5*time.Millisecond)
	if err := d.schedConfig().Validate(c.GPUs); err != nil {
		return deployment{}, err
	}

	d.info = obs.ClusterInfo{Size: c.GPUs}
	p := c.FaultPolicy
	for _, idx := range c.MaliciousGPUs {
		d.info.Malicious = append(d.info.Malicious, obs.MaliciousDevice{
			Index: idx, EveryNth: p.EveryNth, Offset: p.Offset, Probability: p.Probability, Seed: p.Seed,
		})
	}
	for _, idx := range c.SlowGPUs {
		d.info.Slow = append(d.info.Slow, obs.SlowDevice{Index: idx, DelayNs: int64(c.SlowDelay)})
	}
	var err error
	if d.cluster, d.chaos, err = replay.BuildCluster(d.info, c.Chaos); err != nil {
		return deployment{}, fmt.Errorf("darknight: %w", err)
	}
	if c.EnclaveBytes >= 0 {
		if d.encl, err = enclave.New(cmp.Or(c.EnclaveBytes, enclave.DefaultEPCBytes)); err != nil {
			return deployment{}, err
		}
	}
	d.obs = c.Observability.build(c.Seed)
	return d, nil
}

// gang is K+M+E, the devices one virtual batch codes onto.
func (d *deployment) gang() int { return d.cfg.VirtualBatch + d.cfg.Collusion + d.cfg.Redundancy }

// schedConfig is the coding geometry the deployment's runtimes share.
func (d *deployment) schedConfig() sched.Config {
	return sched.Config{
		VirtualBatch:   d.cfg.VirtualBatch,
		Collusion:      d.cfg.Collusion,
		Redundancy:     d.cfg.Redundancy,
		StragglerSlack: d.cfg.StragglerSlack,
		Seed:           d.cfg.Seed,
	}
}

// EnclaveStats returns the enclave's sealing/paging counters (zero value
// if accounting is disabled).
func (d *deployment) EnclaveStats() enclave.Stats {
	if d.encl == nil {
		return enclave.Stats{}
	}
	return d.encl.Stats()
}

// GPUTraffic returns the cluster's total TEE<->GPU channel usage.
func (d *deployment) GPUTraffic() gpu.Traffic { return d.cluster.TotalTraffic() }

// FleetStats returns the fleet health snapshot: per-device health and
// quarantine state, the quarantine event log, straggler/speculation
// counters and per-tenant share accounting (zero value on a System
// without ManagedFleet).
func (d *deployment) FleetStats() FleetStats {
	if d.fm == nil {
		return FleetStats{}
	}
	return d.fm.Stats()
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
