package dataset

import (
	"math/rand"
	"testing"
)

func TestSyntheticCIFARShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := SyntheticCIFAR(rng, 100, 10, 3, 32, 32, 0.1)
	if d.Len() != 100 {
		t.Fatalf("len = %d", d.Len())
	}
	c, h, w := d.C, d.H, d.W
	if c != 3 || h != 32 || w != 32 {
		t.Fatalf("shape = %d %d %d", c, h, w)
	}
	for _, ex := range d.Items {
		if len(ex.Image) != 3*32*32 {
			t.Fatalf("image len = %d", len(ex.Image))
		}
		if ex.Label < 0 || ex.Label >= 10 {
			t.Fatalf("label = %d", ex.Label)
		}
	}
}

func TestSyntheticCIFARDeterministic(t *testing.T) {
	a := SyntheticCIFAR(rand.New(rand.NewSource(7)), 10, 4, 1, 8, 8, 0.05)
	b := SyntheticCIFAR(rand.New(rand.NewSource(7)), 10, 4, 1, 8, 8, 0.05)
	for i := range a.Items {
		if a.Items[i].Label != b.Items[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Items[i].Image {
			if a.Items[i].Image[j] != b.Items[i].Image[j] {
				t.Fatal("pixels differ across identical seeds")
			}
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Nearest-centroid classification on the noiseless patterns should be
	// nearly perfect — the property Fig 4's learnability claim rests on.
	rng := rand.New(rand.NewSource(2))
	d := SyntheticCIFAR(rng, 400, 4, 3, 16, 16, 0.05)
	dim := 3 * 16 * 16
	centroids := make([][]float64, 4)
	counts := make([]int, 4)
	for k := range centroids {
		centroids[k] = make([]float64, dim)
	}
	for _, ex := range d.Items[:200] {
		counts[ex.Label]++
		for j, v := range ex.Image {
			centroids[ex.Label][j] += v
		}
	}
	for k := range centroids {
		if counts[k] == 0 {
			t.Skip("degenerate draw: empty class")
		}
		for j := range centroids[k] {
			centroids[k][j] /= float64(counts[k])
		}
	}
	correct := 0
	for _, ex := range d.Items[200:] {
		best, bestDist := -1, 0.0
		for k := range centroids {
			var dist float64
			for j, v := range ex.Image {
				diff := v - centroids[k][j]
				dist += diff * diff
			}
			if best < 0 || dist < bestDist {
				best, bestDist = k, dist
			}
		}
		if best == ex.Label {
			correct++
		}
	}
	acc := float64(correct) / 200
	if acc < 0.95 {
		t.Fatalf("nearest-centroid accuracy %.2f < 0.95 — classes not separable", acc)
	}
}

func TestSplitAndBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := SyntheticCIFAR(rng, 100, 2, 1, 4, 4, 0.1)
	train, test := d.Split(0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
	b := train.Batches(16)
	if len(b) != 5 {
		t.Fatalf("batches = %d", len(b))
	}
	for _, batch := range b {
		if len(batch) != 16 {
			t.Fatalf("batch size = %d", len(batch))
		}
	}
	// Partial batch dropped.
	if got := len(train.Batches(30)); got != 2 {
		t.Fatalf("batches(30) = %d", got)
	}
}

func TestShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := SyntheticCIFAR(rng, 50, 5, 1, 4, 4, 0)
	labels := make([]int, d.Len())
	for i, ex := range d.Items {
		labels[i] = ex.Label
	}
	d.Shuffle(rng)
	same := true
	for i, ex := range d.Items {
		if ex.Label != labels[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("shuffle left order unchanged (astronomically unlikely)")
	}
	if d.Len() != 50 {
		t.Fatal("shuffle changed length")
	}
}

func TestImageNetShape(t *testing.T) {
	c, h, w, classes := imageNetShape()
	if c != 3 || h != 224 || w != 224 || classes != 1000 {
		t.Fatalf("geometry = %d %d %d %d", c, h, w, classes)
	}
}

func TestRandomImages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomImages(rng, 3, 3, 8, 8)
	if d.Len() != 3 || len(d.Items[0].Image) != 192 {
		t.Fatal("random images malformed")
	}
}

// imageNetShape returns the canonical ImageNet input geometry used by the
// performance experiments (224×224×3, 1000 classes). No pixel data is
// materialized; op-count workloads only need the geometry.
func imageNetShape() (c, h, w, classes int) { return 3, 224, 224, 1000 }

// randomImages generates n unlabelled random images of the given geometry,
// used by throughput-style benchmarks that never look at the labels.
func randomImages(rng *rand.Rand, n, c, h, w int) *Dataset {
	d := &Dataset{C: c, H: h, W: w, Classes: 1, Items: make([]Example, n)}
	for i := range d.Items {
		img := make([]float64, c*h*w)
		for j := range img {
			img[j] = rng.NormFloat64() * 0.5
		}
		d.Items[i] = Example{Image: img}
	}
	return d
}
