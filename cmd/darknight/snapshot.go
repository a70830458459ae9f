package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"darknight"
)

// snapshotFlags fetches a state snapshot from a running server's
// observability listener and writes it to a file — the capture half of
// snapshot-to-replay incident debugging.
func snapshotFlags() (*flag.FlagSet, func() (job, error)) {
	fs := newFlagSet("snapshot")
	addr := fs.String("addr", "127.0.0.1:9090", "observability listener of the running server (its -metrics-addr)")
	out := fs.String("o", "snapshot.json", "output file")
	timeout := fs.Duration("timeout", 10*time.Second, "fetch timeout")
	return fs, func() (job, error) { return job{run: func() { snapshot(*addr, *out, *timeout) }}, nil }
}

func snapshot(addr, out string, timeout time.Duration) {
	url := fmt.Sprintf("http://%s/snapshot", addr)
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		log.Fatalf("snapshot: fetching %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		log.Fatalf("snapshot: %s returned %s: %s", url, resp.Status, body)
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatalf("snapshot: writing %s: %v", out, err)
	}
	// Re-read through the loader so a truncated or incompatible capture
	// fails here, not at replay time.
	snap, err := darknight.LoadSnapshot(out)
	if err != nil {
		log.Fatalf("snapshot: %s did not validate: %v", out, err)
	}
	fmt.Printf("snapshot: %d bytes to %s (v%d, %d batches, %d events, model %s)\n",
		n, out, snap.Version, len(snap.Batches), len(snap.Events), snap.Model.Name)
}

// replayFlags re-runs a captured incident deterministically: it rebuilds
// the snapshot's cluster, fleet, and model, replays the recorded batch
// window, and exits nonzero if any batch outcome or event projection
// diverges from the capture.
func replayFlags() (*flag.FlagSet, func() (job, error)) {
	fs := newFlagSet("replay")
	path := fs.String("snapshot", "", "snapshot file to replay (required)")
	modelName := fs.String("model", "", "override the model arch recorded in the snapshot")
	seed := fs.Int64("seed", -1, "override the model seed recorded in the snapshot")
	verbose := fs.Bool("v", false, "print progress lines")
	return fs, func() (job, error) {
		if *path == "" {
			return job{}, errors.New("replay: -snapshot FILE is required")
		}
		return job{run: func() { replay(*path, *modelName, *seed, *verbose) }}, nil
	}
}

func replay(path, modelName string, seed int64, verbose bool) {
	snap, err := darknight.LoadSnapshot(path)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	var model *darknight.Model
	if modelName != "" || seed >= 0 {
		sd := snap.Model.Seed
		if seed >= 0 {
			sd = seed
		}
		model, err = darknight.BuildModel(cmp.Or(modelName, snap.Model.Arch), sd)
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
	}
	opts := darknight.ReplayOptions{RecorderSize: len(snap.Events) + 16*len(snap.Batches) + 64}
	if verbose {
		opts.Logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
	}
	rep, err := darknight.Replay(snap, model, opts)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	fmt.Println(rep.Summary())
	if !rep.OK() {
		for _, m := range rep.Mismatches {
			fmt.Printf("  %s\n", m)
		}
		os.Exit(1)
	}
}
