package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cachegenie/internal/core"
	"cachegenie/internal/orm"
	"cachegenie/internal/sqldb"
)

// auditResult is the staleness audit of one trial: every cached entry of
// the 14 cached objects, re-derived from the committed database.
type auditResult struct {
	Keys      int                  `json:"audited_keys"`
	Stale     int                  `json:"stale_keys"`
	ByObject  map[string]*objAudit `json:"by_object"`
	StaleKeys []string             `json:"stale_key_list,omitempty"`
}

type objAudit struct {
	Keys  int `json:"keys"`
	Stale int `json:"stale"`
}

func (a auditResult) frac() float64 {
	if a.Keys == 0 {
		return 0
	}
	return float64(a.Stale) / float64(a.Keys)
}

// audit visits every key of the cached objects present in any cache node,
// after the run and its FlushInvalidations, and compares each node's copy
// with the object's QueryTemplate evaluated on the database: row multisets
// for feature and link objects, the first K rows for top-K objects, and
// the value for counts. A key is stale when any copy differs or does not
// decode. Stores are read with GetQuiet, so the audit moves no counters.
func audit(st *stack) (auditResult, error) {
	res := auditResult{ByObject: map[string]*objAudit{}}
	for name := range st.app.Objects {
		res.ByObject[name] = &objAudit{}
	}
	seen := map[string]bool{}
	var keys []string
	for _, s := range st.stores {
		for _, k := range s.Keys() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		co, vals, err := st.parseKey(key)
		if err != nil {
			return res, err
		}
		rs, err := st.db.Query(co.QueryTemplate(), vals...)
		if err != nil {
			return res, fmt.Errorf("audit %s: %w", key, err)
		}
		present, fresh := false, true
		for _, s := range st.stores {
			raw, ok := s.GetQuiet(key)
			if !ok {
				continue
			}
			present = true
			if !matches(co.Spec(), raw, rs.Rows) {
				fresh = false
			}
		}
		if !present {
			continue
		}
		oa := res.ByObject[co.Spec().Name]
		oa.Keys++
		res.Keys++
		if !fresh {
			oa.Stale++
			res.Stale++
			res.StaleKeys = append(res.StaleKeys, key)
		}
	}
	return res, nil
}

// parseKey maps a cache key "cg:<object>:<v1>[:<v2>]" back to its cached
// object and typed lookup values, and checks that the object rebuilds the
// same key from them.
func (st *stack) parseKey(key string) (*core.CachedObject, []sqldb.Value, error) {
	parts := strings.Split(key, ":")
	if len(parts) < 3 || parts[0] != "cg" {
		return nil, nil, fmt.Errorf("audit: foreign cache key %q", key)
	}
	co := st.app.Objects[parts[1]]
	if co == nil {
		return nil, nil, fmt.Errorf("audit: key %q names no cached object", key)
	}
	spec := co.Spec()
	modelName := spec.MainModel
	if spec.Class == core.LinkQuery {
		modelName = spec.Link.ThroughModel
	}
	m, err := st.reg.Model(modelName)
	if err != nil {
		return nil, nil, err
	}
	if len(parts)-2 != len(spec.WhereFields) {
		return nil, nil, fmt.Errorf("audit: key %q has %d values, object wants %d", key, len(parts)-2, len(spec.WhereFields))
	}
	vals := make([]sqldb.Value, len(spec.WhereFields))
	for i, f := range spec.WhereFields {
		v, err := parseKeyValue(parts[2+i], fieldType(m, f))
		if err != nil {
			return nil, nil, fmt.Errorf("audit: key %q: %w", key, err)
		}
		vals[i] = v
	}
	if got := co.MakeKey(vals...); got != key {
		return nil, nil, fmt.Errorf("audit: key %q re-encodes as %q", key, got)
	}
	return co, vals, nil
}

func fieldType(m *orm.Model, field string) sqldb.Type {
	for _, f := range m.Fields {
		if f.Name == field {
			return f.Type
		}
	}
	return sqldb.TypeInt // the implicit id primary key
}

func parseKeyValue(s string, t sqldb.Type) (sqldb.Value, error) {
	switch t {
	case sqldb.TypeText:
		s = strings.NewReplacer("%3A", ":", "%20", " ", "%25", "%").Replace(s)
		return sqldb.Str(s), nil
	case sqldb.TypeInt, sqldb.TypeBool, sqldb.TypeTime:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Value{Type: t, I: n}, nil
	}
	return sqldb.Value{}, fmt.Errorf("unsupported key value type %v", t)
}

// matches reports whether a cached value equals what the object's query
// returns from the database now.
func matches(spec core.Spec, raw []byte, dbRows []sqldb.Row) bool {
	if spec.Class == core.CountQuery {
		n, err := strconv.ParseInt(string(raw), 10, 64)
		return err == nil && len(dbRows) == 1 && n == dbRows[0][0].I
	}
	cached, err := decodeRows(raw)
	if err != nil {
		return false
	}
	if spec.Class == core.TopKQuery {
		return equalRows(firstK(cached, spec.K), firstK(dbRows, spec.K))
	}
	return equalRows(sortedRows(cached), sortedRows(dbRows))
}

func firstK(rows []sqldb.Row, k int) [][]byte {
	if len(rows) > k {
		rows = rows[:k]
	}
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = sqldb.EncodeRow(nil, r)
	}
	return out
}

func sortedRows(rows []sqldb.Row) [][]byte {
	out := firstK(rows, len(rows))
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) < 0 })
	return out
}

func equalRows(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// decodeRows reads the rows of a row-valued cached entry: a version byte,
// an exhaustive flag, a uvarint row count, then each row as a uvarint
// length and an sqldb.EncodeRow encoding. This is the layout core writes;
// an entry in any other layout counts as stale.
func decodeRows(b []byte) ([]sqldb.Row, error) {
	const version = 1
	if len(b) < 2 || b[0] != version {
		return nil, fmt.Errorf("bad payload header")
	}
	b = b[2:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("bad payload row count")
	}
	b = b[n:]
	rows := make([]sqldb.Row, 0, count)
	for i := uint64(0); i < count; i++ {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return nil, fmt.Errorf("truncated payload row %d", i)
		}
		b = b[n:]
		row, err := sqldb.DecodeRow(b[:l])
		if err != nil {
			return nil, err
		}
		b = b[l:]
		rows = append(rows, row)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("trailing payload bytes")
	}
	return rows, nil
}
