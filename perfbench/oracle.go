package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"strconv"
	"strings"

	"xmlsql/internal/pathexpr"
	"xmlsql/internal/relational"
	"xmlsql/internal/schema"
	"xmlsql/internal/shred"
	"xmlsql/internal/xmltree"
)

// summary is an order-independent digest of a multiset of rows: the row
// count plus two independent sums of per-row hashes. Two answers with equal
// summaries are the same multiset up to a hash collision; the benchmark keeps
// summaries instead of expected rows so the oracle adds almost nothing to the
// live heap it measures.
type summary struct {
	n      int
	h1, h2 uint64
}

// rowSeed is fixed per process: summaries are only ever compared within one
// run.
var rowSeed = maphash.MakeSeed()

func (s *summary) addRow(canon string) {
	s.n++
	s.h1 += maphash.String(rowSeed, canon)
	f := fnv.New64a()
	f.Write([]byte(canon))
	s.h2 += f.Sum64()
}

// canonValue renders one value the way both sides agree on: "i<int>",
// "s<string>" or "n" for NULL.
func canonValue(v relational.Value) string {
	switch v.Kind() {
	case relational.KindInt:
		return "i" + strconv.FormatInt(v.AsInt(), 10)
	case relational.KindString:
		return "s" + v.AsString()
	default:
		return "n"
	}
}

// summarizeValues digests expected single-column rows.
func summarizeValues(vals []relational.Value) summary {
	var s summary
	for _, v := range vals {
		s.addRow(canonValue(v))
	}
	return s
}

// summarizeStrings digests expected single-column string rows.
func summarizeStrings(vals []string) summary {
	var s summary
	for _, v := range vals {
		s.addRow("s" + v)
	}
	return s
}

// reference evaluates queries directly on the generated documents: the
// documents are shredded into a throwaway store (for the element ids the
// relational answer carries), and each path expression is matched on the XML
// trees by shred.EvalReferenceAll. Nothing the server runs is consulted.
type reference struct {
	results []*shred.Result
}

func newReference(s *schema.Schema, docs []*xmltree.Document) (*reference, error) {
	res, err := shred.ShredAll(s, relational.NewStore(), shred.Options{}, docs...)
	if err != nil {
		return nil, fmt.Errorf("reference shred: %w", err)
	}
	return &reference{results: res}, nil
}

func (r *reference) values(query string) ([]relational.Value, error) {
	q, err := pathexpr.Parse(query)
	if err != nil {
		return nil, err
	}
	return shred.EvalReferenceAll(r.results, q)
}

func (r *reference) summary(query string) (summary, error) {
	vals, err := r.values(query)
	if err != nil {
		return summary{}, fmt.Errorf("reference %s: %w", query, err)
	}
	return summarizeValues(vals), nil
}

// checker verifies /query answers against expected summaries. The first
// answer to a query is decoded in full and summarized; once it matched, the
// raw bytes of its rows section are remembered by digest with the expected
// answer, so later identical answers to the same expectation are checked by
// hashing their bytes instead of decoding them. An answer whose bytes or
// expectation differ is decoded in full again. One entry per query keeps the
// checker's size independent of how many writes changed the expectations.
type checker struct {
	verified map[string]verifiedAnswer
}

type verifiedAnswer struct {
	want   summary
	digest uint64
}

func newChecker() *checker { return &checker{verified: map[string]verifiedAnswer{}} }

var (
	rowsMarker     = []byte(`"rows":`)
	rowCountMarker = []byte(`"row_count":`)
	elapsedMarker  = []byte(`"elapsed_ns":`)
)

// check returns the row count and server-reported elapsed time of a 200
// answer, and whether its rows are exactly the expected multiset.
func (c *checker) check(query string, want summary, body []byte) (rows int, elapsedNs int64, ok bool) {
	if section, n, el, found := rowsSection(body); found {
		d := maphash.Bytes(rowSeed, section)
		if v, seen := c.verified[query]; seen && v == (verifiedAnswer{want, d}) && n == want.n {
			return n, el, true
		}
		got, el2, err := decodeSummary(body)
		if err != nil || got != want {
			return got.n, el2, false
		}
		c.verified[query] = verifiedAnswer{want, d}
		return got.n, el2, true
	}
	got, el, err := decodeSummary(body)
	return got.n, el, err == nil && got == want
}

// rowsSection locates the rows array and the trailing counters of a query
// answer without decoding it.
func rowsSection(body []byte) (section []byte, rows int, elapsedNs int64, ok bool) {
	i := bytes.Index(body, rowsMarker)
	j := bytes.LastIndex(body, rowCountMarker)
	if i < 0 || j < i {
		return nil, 0, 0, false
	}
	n, ok1 := intAfter(body[j:], rowCountMarker)
	el, ok2 := intAfter(body[j:], elapsedMarker)
	if !ok1 || !ok2 {
		return nil, 0, 0, false
	}
	return body[i:j], int(n), el, true
}

// intAfter parses the integer following key in b.
func intAfter(b, key []byte) (int64, bool) {
	i := bytes.Index(b, key)
	if i < 0 {
		return 0, false
	}
	rest := bytes.TrimLeft(b[i+len(key):], " \t\r\n")
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] >= '0' && rest[end] <= '9') {
		end++
	}
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return v, err == nil
}

type queryAnswer struct {
	Rows      [][]any `json:"rows"`
	RowCount  int     `json:"row_count"`
	ElapsedNs int64   `json:"elapsed_ns"`
}

// decodeSummary fully decodes a query answer and digests its rows.
func decodeSummary(body []byte) (summary, int64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var a queryAnswer
	if err := dec.Decode(&a); err != nil {
		return summary{}, 0, err
	}
	var s summary
	var sb strings.Builder
	for _, row := range a.Rows {
		sb.Reset()
		for k, v := range row {
			if k > 0 {
				sb.WriteByte(0x1f)
			}
			switch x := v.(type) {
			case json.Number:
				sb.WriteString("i" + x.String())
			case string:
				sb.WriteString("s" + x)
			case nil:
				sb.WriteString("n")
			default:
				return summary{}, 0, fmt.Errorf("unexpected JSON value %T", v)
			}
		}
		s.addRow(sb.String())
	}
	if s.n != a.RowCount {
		return s, a.ElapsedNs, fmt.Errorf("row_count %d but %d rows", a.RowCount, s.n)
	}
	return s, a.ElapsedNs, nil
}
