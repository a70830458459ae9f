// Package dataset provides deterministic synthetic image datasets standing
// in for CIFAR-10 and ImageNet (hardware/data substitution documented in
// DESIGN.md). The accuracy experiments (paper Fig 4) need a *learnable*
// distribution with CIFAR's shape, not the actual images; the performance
// experiments only consume tensor shapes.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Example is a single labelled image in CHW layout.
type Example struct {
	Image []float64 // C*H*W
	Label int
}

// Dataset is an in-memory labelled image set.
type Dataset struct {
	C, H, W int
	Classes int
	Items   []Example
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Items) }

// SyntheticCIFAR generates n examples shaped like CIFAR-10 (3×32×32, 10
// classes) — or any other geometry — where each class is a distinct smooth
// spatial pattern (class-specific 2-D sinusoid mixed across channels) plus
// Gaussian pixel noise. The classes are linearly well-separated enough for
// small CNNs to learn quickly, which is what the Fig 4 raw-vs-DarKnight
// comparison requires.
func SyntheticCIFAR(rng *rand.Rand, n, classes, c, h, w int, noise float64) *Dataset {
	if classes < 2 {
		panic(fmt.Sprintf("dataset: need >= 2 classes, got %d", classes))
	}
	d := &Dataset{C: c, H: h, W: w, Classes: classes, Items: make([]Example, n)}
	// Per-class pattern parameters, fixed for the dataset's lifetime.
	type pattern struct{ fx, fy, phase, chanShift float64 }
	pats := make([]pattern, classes)
	for k := range pats {
		pats[k] = pattern{
			fx:        1 + float64(k%4),
			fy:        1 + float64((k/4)%4),
			phase:     2 * math.Pi * float64(k) / float64(classes),
			chanShift: float64(k) / float64(classes),
		}
	}
	for i := range d.Items {
		label := rng.Intn(classes)
		p := pats[label]
		img := make([]float64, c*h*w)
		for ch := 0; ch < c; ch++ {
			chw := (p.chanShift + float64(ch)/float64(c)) * math.Pi
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := math.Sin(p.fx*2*math.Pi*float64(x)/float64(w)+p.phase+chw) *
						math.Cos(p.fy*2*math.Pi*float64(y)/float64(h)+p.phase)
					img[(ch*h+y)*w+x] = 0.5*v + noise*rng.NormFloat64()
				}
			}
		}
		d.Items[i] = Example{Image: img, Label: label}
	}
	return d
}

// Split partitions the dataset into train/test at the given train fraction.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	cut := int(float64(len(d.Items)) * trainFrac)
	train = &Dataset{C: d.C, H: d.H, W: d.W, Classes: d.Classes, Items: d.Items[:cut]}
	test = &Dataset{C: d.C, H: d.H, W: d.W, Classes: d.Classes, Items: d.Items[cut:]}
	return train, test
}

// Batches cuts the dataset into consecutive batches of size bs (the last
// partial batch is dropped, matching common training practice).
func (d *Dataset) Batches(bs int) [][]Example {
	var out [][]Example
	for i := 0; i+bs <= len(d.Items); i += bs {
		out = append(out, d.Items[i:i+bs])
	}
	return out
}

// Shuffle permutes the examples in place.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Items), func(i, j int) {
		d.Items[i], d.Items[j] = d.Items[j], d.Items[i]
	})
}
