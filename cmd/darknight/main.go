// Command darknight is a CLI for the DarKnight reproduction. It trains and
// serves small models on synthetic data through the full masked pipeline:
//
//	darknight <train|infer|verify|serve|loadgen|snapshot|replay> [flags]
//
// `train` trains privately, one virtual batch at a time or pipelined over
// GPU gangs (bit-identical weights either way); `infer` runs one masked
// inference batch; `verify` runs a training step against a cluster with a
// tampering GPU and reports the violation. `serve` stands up the
// concurrent inference service under closed-loop client load and reports
// throughput, latency quantiles, batch occupancy and fleet health;
// `loadgen` sweeps the client count to chart how dynamic K-batching
// converts concurrency into throughput. `snapshot` captures a running
// server's state, and `replay` re-runs the capture deterministically.
//
// `darknight <cmd> -h` lists a command's flags and their defaults. A
// deployment flag that several commands take means the same in each, and
// one rule derives the redundant equations E from them: -integrity (or a
// -malicious GPU) gives 1; -recover or -slack N > 0 gives 2; both give
// 2+N. loadgen under -malicious or -chaos recovers, so it runs at E = 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"darknight"
	"darknight/internal/masking"
)

// commands maps each command to its flags: the constructor registers them
// on a new flag set and returns the step that builds the command's job
// from their values.
var commands = map[string]func() (*flag.FlagSet, func() (job, error)){
	"train":    trainFlags,
	"infer":    inferFlags,
	"verify":   verifyFlags,
	"serve":    serveFlags,
	"loadgen":  loadgenFlags,
	"snapshot": snapshotFlags,
	"replay":   replayFlags,
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: darknight <train|infer|verify|serve|loadgen|snapshot|replay> [flags]")
		os.Exit(2)
	}
	j, err := parse(os.Args[2:], commands[os.Args[1]])
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUsage):
		os.Exit(2) // the flag set has reported it with its usage
	case err != nil:
		log.Fatal(err)
	}
	j.run()
}

// job is a parsed command: the config its flags derive (nil for a command
// that deploys nothing of its own) and the run that uses it.
type job struct {
	cfg any
	run func()
}

var errUsage = errors.New("usage")

// parse parses args with a command's flags, then builds the command's job
// from their values. It runs nothing and exits nowhere.
func parse(args []string, flags func() (*flag.FlagSet, func() (job, error))) (job, error) {
	fs, build := flags()
	if err := fs.Parse(args); err != nil {
		return job{}, fmt.Errorf("%w: %w", errUsage, err)
	}
	return build()
}

// newFlagSet returns an empty flag set for the named command that hands
// its errors to parse.
func newFlagSet(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

func buildModel(name string, seed int64) *darknight.Model {
	m, err := darknight.BuildModel(name, seed)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func trainFlags() (*flag.FlagSet, func() (job, error)) {
	fs, d := newDeployFlags("train")
	epochs := fs.Int("epochs", 4, "training epochs")
	batch := fs.Int("batch", 8, "large-batch size (multiples of K avoid dropped tail examples)")
	return fs, func() (job, error) {
		cfg, err := d.config()
		if err == nil && *batch < cfg.VirtualBatch {
			err = fmt.Errorf("-batch %d is smaller than the virtual batch K=%d", *batch, cfg.VirtualBatch)
		}
		cfg.TrainPipelineDepth, cfg.ManagedFleet = d.sc.PipelineDepth, d.fleet
		cfg.SpareGPUs, cfg.StragglerSlack, cfg.SlowAll = d.sc.SpareGPUs, d.sc.StragglerSlack, d.sc.SlowAll
		return job{cfg, func() { train(cfg, d, *epochs, *batch) }}, err
	}
}

func train(cfg darknight.Config, d *deployFlags, epochs, batch int) {
	model := buildModel(d.sc.Arch, cfg.Seed)
	sys, err := darknight.NewSystem(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(240, 4, 1, 8, 8, cfg.Seed+1)
	train, test := data[:192], data[192:]
	if batch > len(train) {
		log.Fatalf("-batch %d exceeds the %d-example training set", batch, len(train))
	}
	mode := "serial"
	if cfg.TrainPipelineDepth >= 2 {
		mode = fmt.Sprintf("pipelined depth %d", cfg.TrainPipelineDepth)
	}
	if cfg.ManagedFleet {
		mode += ", fleet-managed gangs"
	}
	fmt.Printf("training %s privately: K=%d, integrity=%v, %d examples, %s\n",
		model.Name(), cfg.VirtualBatch, d.integrity, len(train), mode)
	warnedDrop := false
	start := time.Now()
	for epoch := 1; epoch <= epochs; epoch++ {
		var loss float64
		batches := 0
		for i := 0; i+batch <= len(train); i += batch {
			l, stats, err := sys.TrainBatchStats(train[i : i+batch])
			if err != nil {
				log.Fatalf("epoch %d: %v", epoch, err)
			}
			if stats.DroppedExamples > 0 && !warnedDrop {
				log.Printf("warning: %d tail example(s) per batch dropped — DarKnight codes exactly K=%d inputs per "+
					"dispatch (the paper's K-granularity constraint); use -batch sizes that are multiples of K",
					stats.DroppedExamples, cfg.VirtualBatch)
				warnedDrop = true
			}
			loss += l
			batches++
		}
		fmt.Printf("epoch %d: loss %.4f, test accuracy %.3f\n",
			epoch, loss/float64(batches), sys.Evaluate(test))
	}
	elapsed := time.Since(start)
	ph := sys.TrainPhases()
	fmt.Printf("trained in %v; offloads %d, overlap ratio %.2f\n", elapsed.Round(time.Millisecond), ph.Offloads, ph.Overlap())
	if cfg.ManagedFleet {
		fst := sys.FleetStats()
		fmt.Printf("fleet: %d quarantine events, %d straggler events, %d devices\n",
			fst.QuarantineEvents, fst.StragglerEvents, len(fst.Devices))
	}
	st := sys.EnclaveStats()
	tr := sys.GPUTraffic()
	fmt.Printf("enclave: %d seals (%d bytes); GPUs: %d jobs, %d bytes in, %d bytes out\n",
		st.SealOps, st.SealedBytes, tr.Jobs, tr.BytesIn, tr.BytesOut)
}

func inferFlags() (*flag.FlagSet, func() (job, error)) {
	fs, d := newDeployFlags("infer")
	return fs, func() (job, error) {
		cfg, err := d.config()
		return job{cfg, func() { infer(cfg, d.sc.Arch) }}, err
	}
}

func infer(cfg darknight.Config, model string) {
	sys, err := darknight.NewSystem(buildModel(model, cfg.Seed), cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(cfg.VirtualBatch, 4, 1, 8, 8, cfg.Seed+1)
	preds, err := sys.Predict(imagesOf(data))
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range preds {
		fmt.Printf("image %d: predicted class %d (true %d)\n", i, p, data[i].Label)
	}
}

// imagesOf returns the examples' images.
func imagesOf(data []darknight.Example) [][]float64 {
	out := make([][]float64, len(data))
	for i := range data {
		out[i] = data[i].Image
	}
	return out
}

// verifyFlags runs a fixed operating point with one tampering GPU.
func verifyFlags() (*flag.FlagSet, func() (job, error)) {
	fs := newFlagSet("verify")
	malicious := fs.Int("malicious", 1, "index of the tampering GPU")
	seed := fs.Int64("seed", 1, "random seed")
	return fs, func() (job, error) { return job{run: func() { verify(*malicious, *seed) }}, nil }
}

func verify(malicious int, seed int64) {
	model := darknight.TinyCNN(1, 8, 8, 4, seed)
	sys, err := darknight.NewSystem(model, darknight.Config{
		VirtualBatch:  2,
		Redundancy:    1,
		MaliciousGPUs: []int{malicious},
		Seed:          seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(8, 4, 1, 8, 8, seed+1)
	_, err = sys.TrainBatch(data)
	switch {
	case errors.Is(err, masking.ErrIntegrity):
		fmt.Printf("integrity violation DETECTED: GPU %d returned tampered results\n", malicious)
	case err != nil:
		log.Fatalf("unexpected error: %v", err)
	default:
		log.Fatal("tampering went UNDETECTED — this is a bug")
	}
}
