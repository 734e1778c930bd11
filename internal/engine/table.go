package engine

import "rshuffle/internal/sim"

// Table is an in-memory row store: one node's partition of a relation.
type Table struct {
	Sch  *Schema
	Data []byte
	N    int
}

// NewTable returns an empty table with the given schema.
func NewTable(sch *Schema) *Table { return &Table{Sch: sch} }

// tail returns the n bytes just past the table's end, in its spare
// capacity, growing the table first if they do not fit. Growth doubles the
// capacity, so filling a table row by row copies each byte O(1) times. The
// bytes are not part of the table until commit.
func (t *Table) tail(n int) []byte {
	l := len(t.Data)
	if l+n > cap(t.Data) {
		d := make([]byte, l, max(2*cap(t.Data), l+n))
		copy(d, t.Data)
		t.Data = d
	}
	return t.Data[l : l+n]
}

// commit makes the next n bytes of spare capacity, holding rows rows, part
// of the table.
func (t *Table) commit(n, rows int) {
	t.Data = t.Data[:len(t.Data)+n]
	t.N += rows
}

// Append adds one raw row.
func (t *Table) Append(row []byte) {
	copy(t.tail(len(row)), row)
	t.commit(len(row), 1)
}

// AppendBatch adds all rows of b.
func (t *Table) AppendBatch(b *Batch) {
	raw := b.Bytes()
	copy(t.tail(len(raw)), raw)
	t.commit(len(raw), b.N)
}

// Row returns the raw bytes of row i.
func (t *Table) Row(i int) []byte {
	w := t.Sch.Width()
	return t.Data[i*w : (i+1)*w]
}

// Bytes returns the total payload size.
func (t *Table) Bytes() int { return len(t.Data) }

// Writer fills typed rows in place, straight into the table's tail: the
// first Set after NewWriter or Done opens a zeroed row past the table's
// end, and Done commits it. Columns left unset read zero. While a row is
// open, nothing else may append to the table.
type Writer struct {
	t   *Table
	row []byte // the open row, or nil
}

// NewWriter returns a writer for t.
func NewWriter(t *Table) *Writer { return &Writer{t: t} }

// open returns the open row, opening one if there is none.
func (w *Writer) open() []byte {
	if w.row == nil {
		w.row = w.t.tail(w.t.Sch.Width())
		clear(w.row)
	}
	return w.row
}

// SetInt64 sets an int64 column of the open row.
func (w *Writer) SetInt64(col int, v int64) { RowSetInt64(w.t.Sch, w.open(), col, v) }

// SetFloat64 sets a float64 column of the open row.
func (w *Writer) SetFloat64(col int, v float64) {
	RowSetInt64(w.t.Sch, w.open(), col, int64(float64bits(v)))
}

// SetStr sets a fixed-string column of the open row, zero-padded.
func (w *Writer) SetStr(col int, v string) {
	off := w.t.Sch.Offset(col)
	dst := w.open()[off : off+w.t.Sch.Cols[col].Size()]
	clear(dst)
	copy(dst, v)
}

// Done commits the open row to the table.
func (w *Writer) Done() {
	w.t.commit(len(w.open()), 1)
	w.row = nil
}

// Scan is a morsel-driven parallel table scan: threads grab batches from a
// shared cursor, so work balances across threads automatically (Leis et
// al., morsel-driven parallelism).
type Scan struct {
	T *Table
	// Passes repeats the scan the given number of times (the paper's
	// synthetic experiment streams the table ten times); 0 means 1.
	Passes int

	ctx    *Ctx
	cursor int
	pass   int
	out    []*Batch
}

// Schema implements Operator.
func (s *Scan) Schema() *Schema { return s.T.Sch }

// Open implements Operator.
func (s *Scan) Open(ctx *Ctx) {
	s.ctx = ctx
	if s.Passes <= 0 {
		s.Passes = 1
	}
	s.out = make([]*Batch, ctx.Threads)
	for i := range s.out {
		s.out[i] = NewBatch(s.T.Sch, DefaultBatchTuples)
	}
}

// Next implements Operator.
func (s *Scan) Next(p *sim.Proc, tid int) (*Batch, State) {
	w := s.T.Sch.Width()
	for {
		if s.cursor >= s.T.N {
			if s.pass+1 >= s.Passes {
				return nil, Depleted
			}
			s.pass++
			s.cursor = 0
		}
		n := DefaultBatchTuples
		if rem := s.T.N - s.cursor; n > rem {
			n = rem
		}
		out := s.out[tid]
		out.Reset()
		out.AppendRows(s.T.Data[s.cursor*w : (s.cursor+n)*w])
		s.cursor += n
		s.ctx.ChargeTuples(p, n)
		return out, MoreData
	}
}

// Close implements Operator.
func (s *Scan) Close(p *sim.Proc) {}
