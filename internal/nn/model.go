package nn

import (
	"fmt"

	"darknight/internal/dataset"
	"darknight/internal/tensor"
)

// Model is a trainable network: a layer stack plus bookkeeping. It is the
// unit both training paths operate on — the float reference path here, and
// the quantized masked path in internal/sched.
type Model struct {
	Name    string
	InShape []int
	Classes int
	Stack   *Sequential
}

// NewModel wraps a layer stack.
func NewModel(name string, inShape []int, classes int, stack *Sequential) *Model {
	return &Model{Name: name, InShape: inShape, Classes: classes, Stack: stack}
}

// Params lists all learnable parameters.
func (m *Model) Params() []*Param { return m.Stack.Params() }

// ParamCount returns the total learnable element count.
func (m *Model) ParamCount() int64 {
	var n int64
	for _, p := range m.Params() {
		n += int64(p.W.Size())
	}
	return n
}

// Forward runs one example through the network.
func (m *Model) Forward(image []float64, train bool) *tensor.Tensor {
	x := tensor.FromSlice(image, m.InShape...)
	return m.Stack.Forward(x, train)
}

// Loss runs forward + loss for one example.
func (m *Model) Loss(ex dataset.Example, train bool) (float64, *tensor.Tensor) {
	logits := m.Forward(ex.Image, train)
	return SoftmaxCrossEntropy(logits, ex.Label)
}

// TrainBatch runs the float reference training step on one batch:
// per-example forward/backward with gradient accumulation, then a single
// SGD step on the batch-averaged gradients. Returns the mean loss.
func (m *Model) TrainBatch(batch []dataset.Example, opt *SGD) float64 {
	var total float64
	for _, ex := range batch {
		loss, grad := m.Loss(ex, true)
		total += loss
		m.Stack.Backward(grad)
	}
	inv := 1.0 / float64(len(batch))
	for _, p := range m.Params() {
		p.Grad.Scale(inv)
	}
	opt.Step(m.Params())
	return total * inv
}

// Evaluate returns top-1 accuracy on the dataset.
func (m *Model) Evaluate(d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	for _, ex := range d.Items {
		logits := m.Forward(ex.Image, false)
		if Argmax(logits) == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// CheckImage reports an image that does not fit the model's input shape.
func (m *Model) CheckImage(image []float64) error {
	if want := int(prod(m.InShape)); len(image) != want {
		return fmt.Errorf("nn: image has %d elements, model %s takes %d", len(image), m.Name, want)
	}
	return nil
}

// CheckExample is CheckImage for a training example, whose label must also
// name one of the model's classes.
func (m *Model) CheckExample(ex dataset.Example) error {
	if err := m.CheckImage(ex.Image); err != nil {
		return err
	}
	if ex.Label < 0 || ex.Label >= m.Classes {
		return fmt.Errorf("nn: label %d, model %s has %d classes", ex.Label, m.Name, m.Classes)
	}
	return nil
}

// LinearLayers returns the model's bilinear layers in forward order — the
// ops DarKnight offloads.
func (m *Model) LinearLayers() []Linear {
	var out []Linear
	for _, l := range leaves(m.Stack) {
		if lin, ok := l.(Linear); ok {
			out = append(out, lin)
		}
	}
	return out
}

// BatchNorms returns the model's batch-normalization layers in forward
// order.
func (m *Model) BatchNorms() []*BatchNorm {
	var out []*BatchNorm
	for _, l := range leaves(m.Stack) {
		if bn, ok := l.(*BatchNorm); ok {
			out = append(out, bn)
		}
	}
	return out
}

// leaves walks a layer tree in forward order and returns the layers other
// than Sequential and Residual containers.
func leaves(l Layer) []Layer {
	switch v := l.(type) {
	case *Sequential:
		var out []Layer
		for _, c := range v.Layers() {
			out = append(out, leaves(c)...)
		}
		return out
	case *Residual:
		out := leaves(v.body)
		if v.skip != nil {
			out = append(out, leaves(v.skip)...)
		}
		return out
	}
	return []Layer{l}
}
