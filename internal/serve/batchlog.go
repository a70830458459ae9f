package serve

import (
	"sync"

	"darknight/internal/obs"
)

// DefaultBatchLog is the completed-batch ring capacity kept when
// observability is attached. Snapshots can only replay what the log
// retains.
const DefaultBatchLog = 256

// batchLog is a bounded ring of completed-batch records — the raw
// material of snapshot-to-replay. Each record carries everything that
// determined the batch's outputs: the sealed coded inputs (all K rows,
// dummy pads included, because quantization scales are data-dependent
// over the whole batch), the exact gang slots granted, and the decoded
// verdict. Records are appended at batch completion, which for any
// single device is its dispatch order (a device is exclusively leased,
// and the log append happens before its grant releases), so a replay in
// log order re-runs every device's job sequence faithfully.
type batchLog struct {
	mu  sync.Mutex
	buf []obs.BatchRecord
	pos int
	seq int64
}

func newBatchLog() *batchLog {
	return &batchLog{buf: make([]obs.BatchRecord, 0, DefaultBatchLog)}
}

// add appends one record, stamping its completion sequence. Nil-safe.
func (l *batchLog) add(rec obs.BatchRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	rec.Seq = l.seq
	if len(l.buf) < DefaultBatchLog {
		l.buf = append(l.buf, rec)
	} else {
		l.buf[l.pos] = rec
		l.pos = (l.pos + 1) % DefaultBatchLog
	}
	l.mu.Unlock()
}

// dump returns the retained records oldest-first plus the count of
// records the ring has evicted (0 means the log is complete since server
// start — the precondition for event-sequence replay assertions).
func (l *batchLog) dump() ([]obs.BatchRecord, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]obs.BatchRecord, 0, len(l.buf))
	out = append(out, l.buf[l.pos:]...)
	out = append(out, l.buf[:l.pos]...)
	return out, l.seq - int64(len(l.buf))
}

// logBatch records one completed batch into the log (no-op when the log
// is not attached). Called before the batch's grant releases, so per
// device the log order equals the dispatch order.
func (s *Server) logBatch(b *vbatch, slots []int, preds, culprits []int, err error) {
	if s.batchlog == nil {
		return
	}
	images := make([][]float64, len(b.images))
	for i, row := range b.images {
		images[i] = append([]float64(nil), row...)
	}
	rec := obs.BatchRecord{
		Tenant:   b.tenant,
		RealRows: len(b.reqs),
		Gang:     slots,
		Images:   images,
	}
	if len(culprits) > 0 {
		rec.Culprits = append([]int(nil), culprits...)
	}
	if err != nil {
		rec.Err = err.Error()
	} else {
		rec.Classes = append([]int(nil), preds...)
	}
	s.batchlog.add(rec)
}
