package nn

import (
	"math"

	"darknight/internal/tensor"
)

// SoftmaxCrossEntropy computes the fused softmax + cross-entropy loss for a
// single example and the gradient w.r.t. the logits (softmax(x) - onehot).
// It runs in the TEE in DarKnight: the loss touches raw labels.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (loss float64, grad *tensor.Tensor) {
	grad = tensor.New(logits.Size())
	return SoftmaxCrossEntropyInto(grad, logits, label), grad
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient into
// grad, a tensor of the logits' size whose every element is overwritten,
// and returning the loss.
//
//darknight:hotpath
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, label int) float64 {
	n := logits.Size()
	if label < 0 || label >= n {
		panic("nn: label out of range")
	}
	// Stable softmax, the probabilities staged in grad.
	maxv := math.Inf(-1)
	for _, v := range logits.Data {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	probs := grad.Data[:n]
	for i, v := range logits.Data {
		e := math.Exp(v - maxv)
		probs[i] = e
		sum += e
	}
	for i := range probs {
		probs[i] /= sum
	}
	loss := -math.Log(math.Max(probs[label], 1e-300))
	probs[label] -= 1
	return loss
}

// Argmax returns the index of the largest logit — the predicted class.
func Argmax(logits *tensor.Tensor) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
