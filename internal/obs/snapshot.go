package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// SnapshotVersion is the schema version written by CaptureSnapshot.
// Loaders reject versions they do not understand; additive fields do not
// bump the version, structural changes do.
const SnapshotVersion = 1

// Snapshot is the versioned, JSON-serializable capture of live serving
// state: fleet health/quarantine/probation scores, per-tenant queue
// depths and in-flight grants, batcher and scheduler lane occupancy,
// model-weight hash, RNG seeds, the completed-batch log and the recent
// flight-recorder window. It is assembled by the facade's
// Server.CaptureSnapshot and consumed by the obs/replay harness, which
// re-runs the captured window deterministically.
//
// The schema deliberately uses only basic types: obs sits below fleet,
// serve and sched in the import graph, so those layers fill the sections
// describing themselves.
type Snapshot struct {
	Version    int       `json:"version"`
	CapturedAt time.Time `json:"captured_at"`

	Sched   SchedInfo   `json:"sched"`
	Serving ServingInfo `json:"serving"`
	Model   ModelInfo   `json:"model"`
	Cluster ClusterInfo `json:"cluster"`
	Fleet   FleetInfo   `json:"fleet"`

	// Batches is the completed-batch log in completion order: the sealed
	// coded inputs, gang membership and decoded outputs of each virtual
	// batch. Replay re-runs exactly these.
	Batches []BatchRecord `json:"batches"`
	// BatchesDropped counts batches evicted from the bounded log before
	// capture; replay event-sequence comparison requires 0 (a complete
	// window).
	BatchesDropped int64 `json:"batches_dropped"`

	// Events is the flight-recorder window at capture time, oldest first.
	Events []Event `json:"events"`
	// EventsDropped counts events overwritten by the recorder ring.
	EventsDropped int64 `json:"events_dropped"`
}

// SchedInfo captures the coding geometry and seeds of the scheduler —
// with the runtime's fixed quantization (quant.DefaultFracBits, unit norm
// limit), everything that shapes the exact field arithmetic of a batch.
type SchedInfo struct {
	K              int   `json:"k"`               // virtual batch size
	Collusion      int   `json:"collusion"`       // M noise rows
	Redundancy     int   `json:"redundancy"`      // E integrity equations
	StragglerSlack int   `json:"straggler_slack"` // decode after all-but-N
	Seed           int64 `json:"seed"`
}

// ServingInfo captures the serve layer's configuration and occupancy.
type ServingInfo struct {
	Workers          int   `json:"workers"`
	PipelineDepth    int   `json:"pipeline_depth"`
	Continuous       bool  `json:"continuous"`
	Recover          bool  `json:"recover"`
	QueueDepthCfg    int   `json:"queue_depth_cfg"`
	MaxWaitNs        int64 `json:"max_wait_ns"`
	QueueDepth       int   `json:"queue_depth"` // live admission-queue depth
	BatchesCompleted int64 `json:"batches_completed"`
	Completed        int64 `json:"completed"`
	Failed           int64 `json:"failed"`
	IntegrityEvents  int64 `json:"integrity_events"`
	ContinuousAdmits int64 `json:"continuous_admits"`
}

// ModelInfo identifies the served model. Weights are optional (WithWeights
// capture); the hash always lets replay verify it rebuilt the same model.
type ModelInfo struct {
	Arch       string    `json:"arch,omitempty"` // CLI arch name (tiny|vgg|...), "" for custom models
	Name       string    `json:"name"`
	InShape    []int     `json:"in_shape"`
	Classes    int       `json:"classes"`
	Seed       int64     `json:"seed"`
	WeightHash string    `json:"weight_hash"`
	Weights    []float64 `json:"weights,omitempty"`
}

// ClusterInfo captures the simulated GPU cluster's composition: which
// devices tamper (and how) and which are slow. Replay reconstructs the
// fault/straggler schedule from this plus the recorded batch sequence.
type ClusterInfo struct {
	Size      int               `json:"size"`
	Malicious []MaliciousDevice `json:"malicious,omitempty"`
	Slow      []SlowDevice      `json:"slow,omitempty"`
}

// MaliciousDevice records one tampering device's index and fault policy.
type MaliciousDevice struct {
	Index       int     `json:"index"`
	EveryNth    int     `json:"every_nth,omitempty"`
	Offset      int     `json:"offset,omitempty"`
	Probability float64 `json:"probability,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// SlowDevice records one straggler's index and injected delay.
type SlowDevice struct {
	Index   int   `json:"index"`
	DelayNs int64 `json:"delay_ns"`
}

// FleetInfo captures the fleet manager: per-device health, per-tenant
// lanes and the manager's counters, all read under one lock.
type FleetInfo struct {
	Config  FleetConfigInfo `json:"config"`
	Devices []DeviceInfo    `json:"devices"`
	Tenants []TenantInfo    `json:"tenants"`

	LeasedDevices    int   `json:"leased_devices"`  // devices leased to grants at capture
	BorrowedSpares   int   `json:"borrowed_spares"` // leased to speculation, not to a tenant lane
	QuarantineEvents int64 `json:"quarantine_events"`
	Readmissions     int64 `json:"readmissions"`
	StragglerEvents  int64 `json:"straggler_events"`
	Speculations     int64 `json:"speculations"`
	SLOBreaches      int64 `json:"slo_breaches"`
}

// FleetConfigInfo is the manager configuration replay rebuilds from.
// FaultThreshold is the manager's fixed quarantine threshold, recorded so
// Validate can bound the device fault scores.
type FleetConfigInfo struct {
	FaultThreshold       float64            `json:"fault_threshold"`
	ProbationProbability float64            `json:"probation_probability"`
	SpeculateAfterNs     int64              `json:"speculate_after_ns"`
	Seed                 int64              `json:"seed"`
	Tenants              map[string]float64 `json:"tenants,omitempty"` // name -> weight
}

// DeviceInfo is one device's health record.
type DeviceInfo struct {
	Index       int     `json:"index"`
	ID          int     `json:"id"`
	State       string  `json:"state"` // healthy | probation | quarantined
	Leased      bool    `json:"leased"`
	FaultScore  float64 `json:"fault_score"`
	CleanStreak int     `json:"clean_streak"`
	EWMANs      int64   `json:"ewma_ns"`
	Generation  int     `json:"generation"`
	Dispatches  int64   `json:"dispatches"`
	Faults      int64   `json:"faults"`
	Stragglers  int64   `json:"stragglers"`
	Quarantines int64   `json:"quarantines"`
}

// TenantInfo is one tenant lane's occupancy and accounting.
type TenantInfo struct {
	Name          string  `json:"name"`
	Weight        float64 `json:"weight"`
	Queued        int     `json:"queued"`
	InFlight      int     `json:"in_flight"` // devices held by in-flight grants
	Grants        int64   `json:"grants"`
	DeviceSeconds float64 `json:"device_seconds"`
}

// BatchRecord is one completed virtual batch: everything replay needs to
// re-run it bit-identically. Images holds all K rows — real requests
// first, then the batcher's dummy pad rows — because quantization scales
// are data-dependent over the whole batch, so pads shape real outputs.
type BatchRecord struct {
	Seq      int64       `json:"seq"` // completion order, 1-based
	Tenant   string      `json:"tenant"`
	RealRows int         `json:"real_rows"`
	Gang     []int       `json:"gang"` // cluster slot indices granted
	Images   [][]float64 `json:"images"`
	Classes  []int       `json:"classes,omitempty"` // decoded classes, all K rows
	Culprits []int       `json:"culprits,omitempty"`
	Err      string      `json:"err,omitempty"`
}

// WriteJSON serializes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// SaveSnapshot writes the snapshot to path.
func SaveSnapshot(s *Snapshot, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadSnapshot parses and validates a snapshot from r, which must hold
// one JSON value and nothing after it but white space.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("obs: decode snapshot: data after the snapshot")
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("obs: snapshot version %d not supported (want %d)", s.Version, SnapshotVersion)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSnapshot reads a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// Validate checks the snapshot's internal consistency — the invariants
// the -race capture tests assert on every concurrent capture:
// grant counts match lane occupancy, health scores within bounds, batch
// geometry consistent with the coding parameters.
func (s *Snapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("snapshot: version %d not supported", s.Version)
	}
	if s.Sched.K <= 0 {
		return fmt.Errorf("snapshot: K=%d out of range", s.Sched.K)
	}
	gang := s.Sched.K + s.Sched.Collusion + s.Sched.Redundancy
	leased := 0
	for _, d := range s.Fleet.Devices {
		if d.State != "healthy" && d.State != "probation" && d.State != "quarantined" {
			return fmt.Errorf("snapshot: device %d has invalid state %q", d.Index, d.State)
		}
		if d.FaultScore < 0 {
			return fmt.Errorf("snapshot: device %d fault score %g < 0", d.Index, d.FaultScore)
		}
		if s.Fleet.Config.FaultThreshold > 0 && d.FaultScore > 2*s.Fleet.Config.FaultThreshold {
			return fmt.Errorf("snapshot: device %d fault score %g exceeds 2x threshold %g",
				d.Index, d.FaultScore, s.Fleet.Config.FaultThreshold)
		}
		if d.Leased {
			leased++
		}
	}
	if leased != s.Fleet.LeasedDevices {
		return fmt.Errorf("snapshot: %d devices marked leased but manager reports %d", leased, s.Fleet.LeasedDevices)
	}
	inFlight := 0
	for _, t := range s.Fleet.Tenants {
		if t.InFlight < 0 || t.Queued < 0 {
			return fmt.Errorf("snapshot: tenant %s has negative occupancy", t.Name)
		}
		inFlight += t.InFlight
	}
	// Every leased device belongs to a tenant's in-flight grant or is a
	// borrowed speculation spare: grant counts must match lane occupancy.
	if want := inFlight + s.Fleet.BorrowedSpares; leased != want {
		return fmt.Errorf("snapshot: %d leased devices != %d in in-flight grants + %d borrowed spares",
			leased, inFlight, s.Fleet.BorrowedSpares)
	}
	for i, b := range s.Batches {
		if len(b.Images) != s.Sched.K {
			return fmt.Errorf("snapshot: batch %d has %d rows, want K=%d", i, len(b.Images), s.Sched.K)
		}
		if len(b.Gang) != gang {
			return fmt.Errorf("snapshot: batch %d gang size %d, want %d", i, len(b.Gang), gang)
		}
		if b.RealRows < 0 || b.RealRows > s.Sched.K {
			return fmt.Errorf("snapshot: batch %d real rows %d out of range", i, b.RealRows)
		}
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].Seq <= s.Events[i-1].Seq {
			return fmt.Errorf("snapshot: event window not in ascending seq order at %d", i)
		}
	}
	return nil
}
