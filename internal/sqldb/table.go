package sqldb

import (
	"errors"
	"fmt"

	"cachegenie/internal/btree"
	"cachegenie/internal/storage"
)

// Errors returned by table operations.
var (
	ErrDuplicateKey  = errors.New("sqldb: duplicate key")
	ErrRowNotFound   = errors.New("sqldb: row not found")
	ErrNullViolation = errors.New("sqldb: NOT NULL violation")
)

// Index is a secondary index over one or more columns. Non-unique indexes
// append the primary key to the B+tree key to disambiguate duplicates.
type Index struct {
	Name   string
	Cols   []int // column positions in the schema
	Unique bool
	tree   *btree.Tree
}

// ColNames returns the indexed column names for schema s.
func (ix *Index) ColNames(s *Schema) []string {
	names := make([]string, len(ix.Cols))
	for i, c := range ix.Cols {
		names[i] = s.Columns[c].Name
	}
	return names
}

// table is the physical storage for one table. All mutating methods are raw:
// they maintain storage and indexes but do NOT check locks or fire triggers;
// the engine layers those on top.
type table struct {
	schema *Schema
	heap   *storage.HeapFile
	// byPK maps primary key -> heap record id.
	byPK    map[int64]storage.RecordID
	nextID  int64
	indexes []*Index
	rows    int
}

func newTable(schema *Schema, disk *storage.Disk, pool *storage.BufferPool) *table {
	return &table{
		schema: schema,
		heap:   storage.NewHeapFile(disk, pool),
		byPK:   make(map[int64]storage.RecordID),
		nextID: 1,
	}
}

// indexKey builds the B+tree key for row under index ix.
func (t *table) indexKey(ix *Index, row Row) []byte {
	var key []byte
	for _, c := range ix.Cols {
		key = EncodeKey(key, row[c])
	}
	if !ix.Unique {
		key = EncodeKey(key, row[t.schema.PKIndex])
	}
	return key
}

// prefixKey builds the B+tree key prefix for equality values on the leading
// index columns.
func (t *table) prefixKey(vals []Value) []byte {
	var key []byte
	for _, v := range vals {
		key = EncodeKey(key, v)
	}
	return key
}

// addIndex registers and builds a new index over existing rows.
func (t *table) addIndex(ix *Index) error {
	ix.tree = btree.New(btree.DefaultOrder)
	err := t.scan(func(row Row) (bool, error) {
		key := t.indexKey(ix, row)
		if ix.Unique {
			if _, exists := ix.tree.Get(key); exists {
				return false, fmt.Errorf("%w: building index %s", ErrDuplicateKey, ix.Name)
			}
		}
		ix.tree.Set(key, row[t.schema.PKIndex].I)
		return true, nil
	})
	if err != nil {
		return err
	}
	t.indexes = append(t.indexes, ix)
	return nil
}

// findIndex returns an index whose leading columns are exactly cols (by
// position), or nil.
func (t *table) findIndex(cols []int) *Index {
	for _, ix := range t.indexes {
		if len(ix.Cols) < len(cols) {
			continue
		}
		match := true
		for i, c := range cols {
			if ix.Cols[i] != c {
				match = false
				break
			}
		}
		if match {
			return ix
		}
	}
	return nil
}

// validate checks NOT NULL constraints and column count/types.
func (t *table) validate(row Row) error {
	if len(row) != len(t.schema.Columns) {
		return fmt.Errorf("sqldb: table %s: row has %d values, want %d",
			t.schema.Table, len(row), len(t.schema.Columns))
	}
	for i, v := range row {
		col := t.schema.Columns[i]
		if v.Null {
			if col.NotNull {
				return fmt.Errorf("%w: %s.%s", ErrNullViolation, t.schema.Table, col.Name)
			}
			continue
		}
		if v.Type != col.Type {
			// Permit INT literals in FLOAT columns and vice versa is NOT
			// allowed; the executor coerces before calling.
			return fmt.Errorf("sqldb: table %s column %s: value type %v, want %v",
				t.schema.Table, col.Name, v.Type, col.Type)
		}
	}
	return nil
}

// insertRaw inserts row (assigning the PK if zero/NULL), maintains indexes,
// and returns the stored row.
func (t *table) insertRaw(row Row) (Row, error) {
	row = row.Clone()
	pk := &row[t.schema.PKIndex]
	if pk.Null || pk.I == 0 {
		*pk = I64(t.nextID)
		t.nextID++
	} else if pk.I >= t.nextID {
		t.nextID = pk.I + 1
	}
	if err := t.validate(row); err != nil {
		return nil, err
	}
	if _, dup := t.byPK[pk.I]; dup {
		return nil, fmt.Errorf("%w: %s pk %d", ErrDuplicateKey, t.schema.Table, pk.I)
	}
	// Unique index checks before any mutation.
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		if _, exists := ix.tree.Get(t.indexKey(ix, row)); exists {
			return nil, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.Name)
		}
	}
	rid, err := t.heap.Insert(encodeRow(nil, row))
	if err != nil {
		return nil, err
	}
	t.byPK[pk.I] = rid
	for _, ix := range t.indexes {
		ix.tree.Set(t.indexKey(ix, row), pk.I)
	}
	t.rows++
	return row, nil
}

// getRaw fetches the row with primary key pk.
func (t *table) getRaw(pk int64) (Row, error) {
	rid, ok := t.byPK[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	rec, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	return decodeRow(rec)
}

// updateRaw replaces the row with old's primary key by new (PK change is not
// supported), maintaining indexes. Returns the stored new row.
func (t *table) updateRaw(old, new Row) (Row, error) {
	new = new.Clone()
	if err := t.validate(new); err != nil {
		return nil, err
	}
	pk := old[t.schema.PKIndex].I
	if new[t.schema.PKIndex].I != pk {
		return nil, fmt.Errorf("sqldb: table %s: primary key update not supported", t.schema.Table)
	}
	rid, ok := t.byPK[pk]
	if !ok {
		return nil, fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	// Unique checks for changed index keys.
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		oldKey, newKey := t.indexKey(ix, old), t.indexKey(ix, new)
		if string(oldKey) == string(newKey) {
			continue
		}
		if _, exists := ix.tree.Get(newKey); exists {
			return nil, fmt.Errorf("%w: %s index %s", ErrDuplicateKey, t.schema.Table, ix.Name)
		}
	}
	newRID, err := t.heap.Update(rid, encodeRow(nil, new))
	if err != nil {
		return nil, err
	}
	t.byPK[pk] = newRID
	for _, ix := range t.indexes {
		oldKey, newKey := t.indexKey(ix, old), t.indexKey(ix, new)
		if string(oldKey) == string(newKey) {
			continue
		}
		ix.tree.Delete(oldKey)
		ix.tree.Set(newKey, pk)
	}
	return new, nil
}

// deleteRaw removes the row with old's primary key, maintaining indexes.
func (t *table) deleteRaw(old Row) error {
	pk := old[t.schema.PKIndex].I
	rid, ok := t.byPK[pk]
	if !ok {
		return fmt.Errorf("%w: %s pk %d", ErrRowNotFound, t.schema.Table, pk)
	}
	if err := t.heap.Delete(rid); err != nil {
		return err
	}
	delete(t.byPK, pk)
	for _, ix := range t.indexes {
		ix.tree.Delete(t.indexKey(ix, old))
	}
	t.rows--
	return nil
}

// scan iterates all rows; fn returns (continue, error).
func (t *table) scan(fn func(Row) (bool, error)) error {
	var inner error
	err := t.heap.Scan(func(_ storage.RecordID, data []byte) bool {
		row, err := decodeRow(data)
		if err != nil {
			inner = err
			return false
		}
		cont, err := fn(row)
		if err != nil {
			inner = err
			return false
		}
		return cont
	})
	if inner != nil {
		return inner
	}
	return err
}

// scanIndexEq iterates rows whose leading index columns equal vals, in index
// order. The scan is open-ended and stops at the first key without the
// prefix: text key bytes can be 0xFF, so no fixed upper bound is safe.
func (t *table) scanIndexEq(ix *Index, vals []Value, fn func(Row) (bool, error)) error {
	prefix := t.prefixKey(vals)
	for it := ix.tree.Scan(prefix, nil); it.Valid(); it.Next() {
		k := it.Key()
		if len(k) < len(prefix) || string(k[:len(prefix)]) != string(prefix) {
			break
		}
		row, err := t.getRaw(it.Value())
		if err != nil {
			return err
		}
		cont, err := fn(row)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}
