package relational

import "sync"

// Shape-key markers. Token texts in the key are letters, digits, '_' and
// ASCII punctuation, and every token is terminated by fpSep, so the control
// bytes below cannot collide with content; inline strings are encoded with
// appendValueKey (tag + length prefix, key.go), which is unambiguous against
// everything else.
const (
	fpSep      = 0x00 // token terminator
	fpAutoLit  = 0x01 // auto-extracted literal slot
	fpExplicit = 0x02 // explicit '?' placeholder
)

// maxAutoParams bounds literal extraction per statement: the first
// maxAutoParams literals of the extracting regions become slots, any further
// ones (the tail of a giant IN list) stay inline in the key and in the AST,
// as projection, ORDER BY and LIMIT literals do. The merged parameter vector
// stays small, and the sweep and the parser's auto mode (parser.go, extract)
// apply the same rule, so they agree on which literals are slots.
const maxAutoParams = 64

// fingerprint is the reusable scratch state of one fingerprint pass: the
// binary shape key plus the literal values extracted from the text, in
// token order.
type fingerprint struct {
	key  []byte
	lits []Value
}

var fpScratch = sync.Pool{New: func() any {
	return &fingerprint{key: make([]byte, 0, 256), lits: make([]Value, 0, 8)}
}}

// fpRegion tracks which lexical region of the statement the sweep is in.
// Literals in the SELECT projection list, ORDER BY keys and LIMIT/OFFSET
// stay inline in the key (bail-to-inline): those constants shape the result
// set — projection arity/typing, sort keys and top-k heap sizing — so two
// texts differing there must not share a plan. Everywhere else (WHERE, SET,
// VALUES) literal identity only changes bound values, and literals become
// ordinal slots.
type fpRegion int

const (
	regStart  fpRegion = iota // before the statement keyword
	regItems                  // SELECT projection list
	regNormal                 // literal-extracting regions
	regOrder                  // ORDER BY keys
	regLimit                  // LIMIT/OFFSET counts
)

// fingerprintStmt sweeps sql once with the zero-allocation tokenizer,
// filling fp with a canonical shape key ('S'-prefixed: keywords uppercased,
// whitespace and comments erased, extractable literals reduced to ordinal
// slots) and the extracted literal values in order. It reports false for a
// text that has no shape — a lexical error, an unparseable number, anything
// but SELECT/INSERT/UPDATE/DELETE (DDL, or no statement at all) — which the
// caller parses plainly and runs uncached. It never allocates beyond fp's own
// growth (amortized O(1) per statement).
func fingerprintStmt(fp *fingerprint, sql string) bool {
	fp.key = append(fp.key[:0], 'S')
	fp.lits = fp.lits[:0]
	tz := newTokenizer(sql)
	reg := regStart
	start := true
	for {
		t, err := tz.next()
		if err != nil {
			return false
		}
		if t.kind == tokEOF {
			break
		}
		if start {
			if t.kind != tokKeyword {
				return false
			}
			switch t.text {
			case "EXPLAIN":
				// keep scanning for the statement keyword
			case "SELECT":
				reg = regItems
				start = false
			case "INSERT", "UPDATE", "DELETE":
				reg = regNormal
				start = false
			default:
				return false
			}
			fp.key = append(fp.key, t.text...)
			fp.key = append(fp.key, fpSep)
			continue
		}
		extract := reg == regNormal && len(fp.lits) < maxAutoParams
		switch t.kind {
		case tokKeyword:
			switch t.text {
			case "FROM", "WHERE", "GROUP":
				reg = regNormal
			case "ORDER":
				reg = regOrder
			case "LIMIT", "OFFSET":
				reg = regLimit
			}
			fp.key = append(fp.key, t.text...)
		case tokIdent, tokOp:
			fp.key = append(fp.key, t.text...)
		case tokParam:
			fp.key = append(fp.key, fpExplicit)
		case tokNumber:
			if extract {
				v, err := numberValue(t.text)
				if err != nil {
					return false
				}
				fp.lits = append(fp.lits, v)
				fp.key = append(fp.key, fpAutoLit)
			} else {
				fp.key = append(fp.key, t.text...)
			}
		case tokString:
			if extract {
				fp.lits = append(fp.lits, NewString(t.stringVal()))
				fp.key = append(fp.key, fpAutoLit)
			} else {
				fp.key = appendValueKey(fp.key, NewString(t.stringVal()))
			}
		}
		fp.key = append(fp.key, fpSep)
	}
	return !start
}
