package main

import (
	"bufio"
	"compress/gzip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// layer names the module a span times. Spans are recorded by the
// benchmark's wrappers around the public calls it makes into each layer.
type layer uint8

const (
	layerPage  layer = iota // one page load (load generator); its self time is the unattributed remainder
	layerCore               // orm.Interceptor wrapper and generated trigger bodies (core)
	layerSQL                // orm.Conn wrapper around *sqldb.DB (sqldb)
	layerCache              // wrapper on the logical cache core receives (kvcache, or the cluster ring)
	layerNode               // per-node cacheproto.Pool wrapper (cacheproto)
	numLayers
)

var layerNames = [numLayers]string{"page", "core", "sqldb", "cache", "cacheproto"}

// Span operations; each layer uses its own subset.
const (
	opPage uint8 = iota
	opLookupRows
	opLookupCount
	opTrigger
	opQuery
	opExec
	opGet
	opGets
	opSet
	opAdd
	opCas
	opDelete
	opIncr
	opFlush
	opBatch
	numOps
)

var opNames = [numOps]string{"page", "lookup_rows", "lookup_count", "trigger", "query", "exec",
	"get", "gets", "set", "add", "cas", "delete", "incr", "flush_all", "apply_batch"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the caller's span in the same lane (-1 for a root) and page
// is the page load the span belongs to (-1 for work on goroutines that run
// no page: invalidation-bus workers, replica fan-out, pool probes).
type span struct {
	start, end int64
	parent     int32
	page       int32
	layer      layer
	op         uint8
}

// lane holds the spans of one goroutine. Only that goroutine appends to it;
// the mutex orders a lane's reuse by a later goroutine that inherits the
// same runtime descriptor, and the final read.
type lane struct {
	mu    sync.Mutex
	g     uintptr
	spans []span
	open  []int32
	page  int32
}

// tracer records spans in memory for the traced run. A nil *tracer records
// nothing; wrappers check for that before touching the clock.
type tracer struct {
	epoch time.Time
	lanes sync.Map // goroutine descriptor -> *lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) laneFor(g uintptr) *lane {
	if l, ok := t.lanes.Load(g); ok {
		return l.(*lane)
	}
	l, _ := t.lanes.LoadOrStore(g, &lane{g: g, page: -1})
	return l.(*lane)
}

// begin opens a span on the calling goroutine's lane, nested under the
// innermost span that goroutine still has open.
func (t *tracer) begin(ly layer, op uint8) (*lane, int32) {
	l := t.laneFor(curg())
	l.mu.Lock()
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{start: t.now(), parent: parent, page: l.page, layer: ly, op: op})
	l.open = append(l.open, idx)
	l.mu.Unlock()
	return l, idx
}

// end closes the span begin returned.
func (t *tracer) end(l *lane, idx int32) {
	now := t.now()
	l.mu.Lock()
	l.spans[idx].end = now
	l.open = l.open[:len(l.open)-1]
	l.mu.Unlock()
}

// beginPage opens the root span of page load p on the calling goroutine;
// every span that goroutine opens until endPage belongs to p.
func (t *tracer) beginPage(p int32) (*lane, int32) {
	l := t.laneFor(curg())
	l.mu.Lock()
	l.page = p
	l.mu.Unlock()
	return t.begin(layerPage, opPage)
}

func (t *tracer) endPage(l *lane, idx int32) {
	t.end(l, idx)
	l.mu.Lock()
	l.page = -1
	l.mu.Unlock()
}

func (t *tracer) allLanes() []*lane {
	var out []*lane
	t.lanes.Range(func(_, v any) bool {
		out = append(out, v.(*lane))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].g < out[j].g })
	return out
}

// traceSummary is what the traced run reports per layer.
type traceSummary struct {
	Pages  int
	PageNs int64 // sum of page span durations
	// SelfPage is each layer's self time inside page spans; the page
	// layer's entry is the unattributed remainder (load generator, application and
	// ORM code outside every wrapped call). The entries sum to PageNs.
	SelfPage [numLayers]int64
	// SelfBackground is self time of spans outside any page.
	SelfBackground [numLayers]int64
	// Busy is the inclusive time of every span of the layer, in or out of
	// pages (spans of one layer never nest in each other).
	Busy [numLayers]int64
	// Durations are the span durations per layer and op.
	Durations [numLayers][numOps][]int64
	Spans     int
}

// summarize computes self times: a span's self time is its duration minus
// the part its child spans cover. Children of one span run on the same
// goroutine one after another, so their durations simply add.
func (t *tracer) summarize() traceSummary {
	var s traceSummary
	for _, l := range t.allLanes() {
		l.mu.Lock()
		spans := l.spans
		l.mu.Unlock()
		covered := make([]int64, len(spans))
		for _, sp := range spans {
			if sp.parent >= 0 {
				covered[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range spans {
			d := sp.end - sp.start
			self := d - covered[i]
			if sp.page >= 0 {
				s.SelfPage[sp.layer] += self
			} else {
				s.SelfBackground[sp.layer] += self
			}
			s.Busy[sp.layer] += d
			s.Durations[sp.layer][sp.op] = append(s.Durations[sp.layer][sp.op], d)
			if sp.layer == layerPage {
				s.Pages++
				s.PageNs += d
			}
		}
		s.Spans += len(spans)
	}
	return s
}

// writeSpans writes every span as one tab-separated line (goroutine lane,
// index, parent, page, layer, op, start ns, end ns), gzip-compressed.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	bw.WriteString("lane\tspan\tparent\tpage\tlayer\top\tstart_ns\tend_ns\n")
	var line []byte
	for li, l := range t.allLanes() {
		l.mu.Lock()
		spans := l.spans
		l.mu.Unlock()
		for i, sp := range spans {
			line = strconv.AppendInt(line[:0], int64(li), 10)
			for _, v := range []int64{int64(i), int64(sp.parent), int64(sp.page)} {
				line = append(line, '\t')
				line = strconv.AppendInt(line, v, 10)
			}
			line = append(line, '\t')
			line = append(line, layerNames[sp.layer]...)
			line = append(line, '\t')
			line = append(line, opNames[sp.op]...)
			for _, v := range []int64{sp.start, sp.end} {
				line = append(line, '\t')
				line = strconv.AppendInt(line, v, 10)
			}
			line = append(line, '\n')
			bw.Write(line)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
