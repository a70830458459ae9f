// Command darknight is a CLI for the DarKnight reproduction. It trains and
// serves small models on synthetic data through the full masked pipeline:
//
//	darknight train   [-model tiny|vgg|resnet|mobilenet] [-epochs N] [-k K] [-batch N]
//	                  [-pipeline D] [-fleet] [-spares N] [-slack N] [-slowall] [-slowdelay D]
//	darknight infer   [-model ...] [-k K] [-integrity]
//	darknight verify  [-malicious GPUIDX]
//	darknight serve   [-model ...] [-k K] [-workers N] [-clients N] [-duration D]
//	                  [-tenants gold:3,bronze:1] [-malicious I] [-faultprob P] [-recover]
//	                  [-spares N] [-slack N] [-speculate D] [-slow I] [-slowdelay D]
//	                  [-metrics-addr :9090] [-trace-sample F] [-flight-recorder N]
//	                  [-obs-dump DIR]
//	darknight loadgen [-model ...] [-k K] [-workers N] [-maxclients N] [-duration D]
//	                  [-tenants ...] [-malicious I] [-faultprob P] [-slow I]
//	darknight snapshot [-addr HOST:PORT] [-o FILE]
//	darknight replay  -snapshot FILE [-model NAME] [-seed N] [-v]
//
// `train -pipeline D` overlaps D virtual batches across the TEE and the
// GPU gangs (forward and backward), bit-identical weights to serial;
// `-fleet` adds self-healing fleet management (per-batch gang grants,
// quarantine of attributed tamperers, straggler-tolerant quorum decode).
// `verify` demonstrates integrity detection: it runs a training step
// against a cluster containing a tampering GPU and reports the violation.
// `serve` stands up the concurrent inference service under closed-loop
// client load and reports throughput, latency quantiles, batch occupancy
// and the fleet health snapshot (quarantines, stragglers, tenant shares);
// `loadgen` sweeps the client count to chart how dynamic K-batching
// converts concurrency into throughput, optionally with fault injection
// and fair-share tenants.
//
// `serve -metrics-addr :9090` exports the run live (Prometheus text at
// /metrics, plus /metrics.json, /traces, /flightrecorder);
// `-trace-sample 1` traces every request and prints the last span tree
// with its critical-path breakdown; `-obs-dump DIR` writes the metrics,
// trace and flight-recorder artifacts after the run (the CI artifact set).
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

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "infer":
		cmdInfer(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "loadgen":
		cmdLoadgen(os.Args[2:])
	case "snapshot":
		cmdSnapshot(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: darknight <train|infer|verify|serve|loadgen|snapshot|replay> [flags]")
	os.Exit(2)
}

func buildModel(name string, seed int64) *darknight.Model {
	m, err := darknight.BuildModel(name, seed)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	modelName := fs.String("model", "tiny", "model architecture")
	epochs := fs.Int("epochs", 4, "training epochs")
	k := fs.Int("k", 2, "virtual batch size K")
	batchSize := fs.Int("batch", 8, "large-batch size (multiples of K avoid dropped tail examples)")
	integrity := fs.Bool("integrity", false, "enable integrity verification (one extra GPU)")
	pipeline := fs.Int("pipeline", 0, "train pipeline depth: how many virtual batches ride encode/dispatch/decode at once, each on its own gang (0 and 1 both mean one lane)")
	fleetFlag := fs.Bool("fleet", false, "route dispatch through the self-healing fleet manager (per-batch gang grants, quarantine), at any -pipeline depth")
	spares := fs.Int("spares", 0, "spare GPUs beyond the gang sizing (quarantine headroom)")
	slack := fs.Int("slack", 0, "straggler slack: decode after all but N coded responses (forward needs -integrity redundancy >= 2)")
	slowall := fs.Bool("slowall", false, "make every device slow by -slowdelay (shows what pipelining hides)")
	slowdelay := fs.Duration("slowdelay", 0, "per-dispatch latency of slow devices (default 5ms)")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	model := buildModel(*modelName, *seed)
	if *batchSize < *k {
		log.Fatalf("-batch %d is smaller than the virtual batch K=%d", *batchSize, *k)
	}
	redundancy := 0
	if *integrity {
		redundancy = 1
	}
	if *slack > 0 && redundancy < 2 {
		redundancy = 2 // forward quorum retains one check; backward dual-window needs the secondary decoding
	}
	sys, err := darknight.NewSystem(model, darknight.Config{
		VirtualBatch:       *k,
		Redundancy:         redundancy,
		Seed:               *seed,
		TrainPipelineDepth: *pipeline,
		ManagedFleet:       *fleetFlag,
		SpareGPUs:          *spares,
		StragglerSlack:     *slack,
		SlowAll:            *slowall,
		SlowDelay:          *slowdelay,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(240, 4, 1, 8, 8, *seed+1)
	train, test := data[:192], data[192:]
	if *batchSize > len(train) {
		log.Fatalf("-batch %d exceeds the %d-example training set", *batchSize, len(train))
	}
	mode := "serial"
	if *pipeline >= 2 {
		mode = fmt.Sprintf("pipelined depth %d", *pipeline)
	}
	if *fleetFlag {
		mode += ", fleet-managed gangs"
	}
	fmt.Printf("training %s privately: K=%d, integrity=%v, %d examples, %s\n",
		model.Name(), *k, *integrity, len(train), mode)
	warnedDrop := false
	start := time.Now()
	for epoch := 1; epoch <= *epochs; epoch++ {
		var loss float64
		batches := 0
		for i := 0; i+*batchSize <= len(train); i += *batchSize {
			l, stats, err := sys.TrainBatchStats(train[i : i+*batchSize])
			if err != nil {
				log.Fatalf("epoch %d: %v", epoch, err)
			}
			if stats.DroppedExamples > 0 && !warnedDrop {
				log.Printf("warning: %d tail example(s) per batch dropped — DarKnight codes exactly K=%d inputs per "+
					"dispatch (the paper's K-granularity constraint); use -batch sizes that are multiples of K",
					stats.DroppedExamples, *k)
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
	if *fleetFlag {
		fst := sys.FleetStats()
		fmt.Printf("fleet: %d quarantine events, %d straggler events, %d devices\n",
			fst.QuarantineEvents, fst.StragglerEvents, len(fst.Devices))
	}
	st := sys.EnclaveStats()
	tr := sys.GPUTraffic()
	fmt.Printf("enclave: %d seals (%d bytes); GPUs: %d jobs, %d bytes in, %d bytes out\n",
		st.SealOps, st.SealedBytes, tr.Jobs, tr.BytesIn, tr.BytesOut)
}

func cmdInfer(args []string) {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	modelName := fs.String("model", "tiny", "model architecture")
	k := fs.Int("k", 2, "virtual batch size K")
	integrity := fs.Bool("integrity", false, "enable integrity verification")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	model := buildModel(*modelName, *seed)
	redundancy := 0
	if *integrity {
		redundancy = 1
	}
	sys, err := darknight.NewSystem(model, darknight.Config{
		VirtualBatch: *k, Redundancy: redundancy, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(*k, 4, 1, 8, 8, *seed+1)
	images := make([][]float64, *k)
	for i := range images {
		images[i] = data[i].Image
	}
	preds, err := sys.Predict(images)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range preds {
		fmt.Printf("image %d: predicted class %d (true %d)\n", i, p, data[i].Label)
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	malicious := fs.Int("malicious", 1, "index of the tampering GPU")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	model := darknight.TinyCNN(1, 8, 8, 4, *seed)
	sys, err := darknight.NewSystem(model, darknight.Config{
		VirtualBatch:  2,
		Redundancy:    1,
		MaliciousGPUs: []int{*malicious},
		Seed:          *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	data := darknight.SyntheticDataset(8, 4, 1, 8, 8, *seed+1)
	_, err = sys.TrainBatch(data)
	switch {
	case errors.Is(err, masking.ErrIntegrity):
		fmt.Printf("integrity violation DETECTED: GPU %d returned tampered results\n", *malicious)
	case err != nil:
		log.Fatalf("unexpected error: %v", err)
	default:
		log.Fatal("tampering went UNDETECTED — this is a bug")
	}
}
