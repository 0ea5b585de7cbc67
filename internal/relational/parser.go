package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser for the engine's SQL dialect. It
// consumes the tokenizer stream directly (one token of lookahead buffered in
// peekTok), so parsing allocates only the AST — no intermediate token slice.
//
// In auto mode (parseNormalized) the parser mirrors the fingerprint pass:
// number and string literals outside inline regions become auto-extracted
// parameter slots instead of Literal nodes, so one parsed form serves every
// statement sharing the shape. inline > 0 marks the regions whose literals
// stay inline (SELECT items and ORDER BY keys; LIMIT/OFFSET read their
// numbers directly and are inline by construction) — these literals feed
// projection shape, ordering and top-k sizing, where literal identity changes
// plan semantics. Literals past the first maxAutoParams extracted ones stay
// inline too (fingerprint.go).
type parser struct {
	tz      tokenizer
	tok     token
	peekTok token
	hasPeek bool
	// lexErr is the first lexical error encountered; once set, the stream
	// yields synthetic EOF tokens and the error takes priority over any
	// later parse error.
	lexErr  error
	nparams int // explicit '?' count
	nslots  int // unified slots (explicit + auto) in auto mode
	auto    bool
	slots   []int // per unified slot: 0 = auto literal, else 1-based '?' ordinal
	inline  int
}

// Parse parses one SQL statement.
func Parse(sql string) (Statement, error) {
	st, _, err := parseSQL(sql, false)
	return st, err
}

// parseNormalized parses sql with literal auto-extraction enabled, returning
// the statement plus the unified slot layout (0 = auto-extracted literal,
// n>0 = explicit '?' ordinal n). The caller merges fingerprint-extracted
// literal values with caller-supplied params following that layout.
func parseNormalized(sql string) (Statement, []int, error) {
	return parseSQL(sql, true)
}

func parseSQL(sql string, auto bool) (Statement, []int, error) {
	p := &parser{tz: newTokenizer(sql), auto: auto}
	p.advance() // prime the current token
	st, err := p.statement()
	if err != nil {
		if p.lexErr != nil {
			return nil, nil, p.lexErr
		}
		return nil, nil, err
	}
	// allow trailing semicolon
	if p.cur().kind == tokOp && p.cur().text == ";" {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, nil, p.lexErr
	}
	if p.cur().kind != tokEOF {
		return nil, nil, fmt.Errorf("relational: unexpected trailing input %q at %d", p.cur().text, p.cur().pos)
	}
	return st, p.slots, nil
}

// lex1 pulls one token from the tokenizer, degrading to synthetic EOF after
// a lexical error.
func (p *parser) lex1() token {
	if p.lexErr != nil {
		return token{kind: tokEOF, pos: p.tz.pos}
	}
	t, err := p.tz.next()
	if err != nil {
		p.lexErr = err
		return token{kind: tokEOF, pos: p.tz.pos}
	}
	return t
}

func (p *parser) advance() {
	if p.hasPeek {
		p.tok = p.peekTok
		p.hasPeek = false
		return
	}
	p.tok = p.lex1()
}

// peek returns the token after the current one without consuming it.
func (p *parser) peek() token {
	if !p.hasPeek {
		p.peekTok = p.lex1()
		p.hasPeek = true
	}
	return p.peekTok
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) next() token { t := p.tok; p.advance(); return t }

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("relational: expected %s, got %q at %d", kw, p.cur().text, p.cur().pos)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if p.cur().kind == tokOp && p.cur().text == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("relational: expected %q, got %q at %d", op, p.cur().text, p.cur().pos)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.advance()
		return t.text, nil
	}
	// Permit non-reserved keyword-looking identifiers for column names like
	// "count" is reserved, so users must quote differently; keep strict.
	return "", fmt.Errorf("relational: expected identifier, got %q at %d", t.text, t.pos)
}

// unsupported is the one error for a construct whose keywords the tokenizer
// still reserves but the dialect does not have — JOIN, a table alias, a
// qualified column, HAVING, BETWEEN, an aggregate's DISTINCT. Nothing in the
// program emits them (ARCHITECTURE.md, "Dialect"), so they can only arrive
// from outside (bpctl sql, a WAL record of an older build) and fail here, by
// name, instead of parsing as something else.
func (p *parser) unsupported(construct string) error {
	return fmt.Errorf("relational: %s is not supported (at %d)", construct, p.cur().pos)
}

func (p *parser) statement() (Statement, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("relational: expected statement keyword, got %q at %d", t.text, t.pos)
	}
	switch t.text {
	case "EXPLAIN":
		p.advance()
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return nil, fmt.Errorf("relational: EXPLAIN supports SELECT only")
		}
		sel.Explain = true
		return sel, nil
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	default:
		return nil, fmt.Errorf("relational: unsupported statement %q", t.text)
	}
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.acceptKeyword("DISTINCT")

	p.inline++ // projection literals shape the result; keep them inline
	for {
		if p.acceptOp("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				p.inline--
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				a, err := p.expectIdent()
				if err != nil {
					p.inline--
					return nil, err
				}
				item.Alias = a
			} else if p.cur().kind == tokIdent {
				item.Alias = p.next().text
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	p.inline--

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	// One table, under its own name.
	from, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sel.From = from
	switch {
	case p.cur().kind == tokIdent, p.atKeyword("AS"):
		return nil, p.unsupported("table alias")
	case p.atKeyword("LEFT"):
		return nil, p.unsupported("LEFT JOIN")
	case p.atKeyword("JOIN"), p.atKeyword("INNER"):
		return nil, p.unsupported("JOIN")
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, c)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.atKeyword("HAVING") {
		return nil, p.unsupported("HAVING")
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		p.inline++ // ordering keys (incl. positional numbers) stay inline
		for {
			e, err := p.expr()
			if err != nil {
				p.inline--
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
		p.inline--
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		sel.Offset = n
	}
	return sel, nil
}

func (p *parser) expectInt() (int, error) {
	t := p.cur()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("relational: expected number, got %q at %d", t.text, t.pos)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("relational: invalid integer %q", t.text)
	}
	return n, nil
}

func (p *parser) columnRef() (ColumnRef, error) {
	a, err := p.expectIdent()
	if err != nil {
		return ColumnRef{}, err
	}
	if t := p.cur(); t.kind == tokOp && t.text == "." {
		return ColumnRef{}, p.unsupported("qualified column reference")
	}
	return ColumnRef{Column: a}, nil
}

// expr parses OR-level expressions.
func (p *parser) expr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return nil, fmt.Errorf("relational: expected NULL after IS at %d", p.cur().pos)
		}
		return &IsNullExpr{E: l, Not: not}, nil
	}
	// [NOT] IN / LIKE
	notPrefix := false
	if p.atKeyword("NOT") {
		nt := p.peek()
		if nt.kind == tokKeyword && nt.text == "BETWEEN" {
			return nil, p.unsupported("NOT BETWEEN")
		}
		if nt.kind == tokKeyword && (nt.text == "IN" || nt.text == "LIKE") {
			p.advance()
			notPrefix = true
		}
	}
	if p.acceptKeyword("IN") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.primary()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: notPrefix}, nil
	}
	if p.atKeyword("BETWEEN") {
		return nil, p.unsupported("BETWEEN")
	}
	if p.acceptKeyword("LIKE") {
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", L: l, R: r})
		if notPrefix {
			e = &UnaryExpr{Op: "NOT", E: e}
		}
		return e, nil
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.cur().kind == tokOp && p.cur().text == op {
			p.advance()
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

// numberValue converts a number token's text to a Value — the single place
// literal numbers become typed values, shared by the parser and the
// fingerprint pass so both accept exactly the same spellings.
func numberValue(text string) (Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null, fmt.Errorf("relational: bad number %q", text)
		}
		return NewFloat(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Null, fmt.Errorf("relational: bad number %q", text)
	}
	return NewInt(n), nil
}

// extract reports whether the literal at the current position becomes an
// auto slot: auto mode, outside the inline regions, under the bound.
func (p *parser) extract() bool {
	return p.auto && p.inline == 0 && p.nslots-p.nparams < maxAutoParams
}

// autoSlot records an auto-extracted literal and returns its parameter node.
func (p *parser) autoSlot() *Param {
	p.nslots++
	p.slots = append(p.slots, 0)
	return &Param{Ordinal: p.nslots, Auto: true}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.advance()
		v, err := numberValue(t.text)
		if err != nil {
			return nil, err
		}
		if p.extract() {
			return p.autoSlot(), nil
		}
		return &Literal{Val: v}, nil
	case tokString:
		p.advance()
		if p.extract() {
			return p.autoSlot(), nil
		}
		return &Literal{Val: NewString(t.stringVal())}, nil
	case tokParam:
		p.advance()
		p.nparams++
		if p.auto {
			p.nslots++
			p.slots = append(p.slots, p.nparams)
			return &Param{Ordinal: p.nslots, Src: p.nparams}, nil
		}
		return &Param{Ordinal: p.nparams, Src: p.nparams}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			agg := &AggExpr{Fn: t.text}
			if p.acceptOp("*") {
				if t.text != "COUNT" {
					return nil, fmt.Errorf("relational: %s(*) not supported", t.text)
				}
				agg.Star = true
			} else {
				if p.atKeyword("DISTINCT") {
					return nil, p.unsupported(t.text + "(DISTINCT)")
				}
				arg, err := p.primary()
				if err != nil {
					return nil, err
				}
				agg.Arg = arg
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return agg, nil
		case "NOT":
			p.advance()
			e, err := p.primary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: "NOT", E: e}, nil
		}
		return nil, fmt.Errorf("relational: unexpected keyword %q at %d", t.text, t.pos)
	case tokIdent:
		c, err := p.columnRef()
		if err != nil {
			return nil, err
		}
		return &c, nil
	case tokOp:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("relational: unexpected token %q at %d", t.text, t.pos)
}

func (p *parser) insertStmt() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.primary()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) createStmt() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("TABLE") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		ct := &CreateTableStmt{Table: name}
		for {
			cn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			tt := p.cur()
			if tt.kind != tokKeyword {
				return nil, fmt.Errorf("relational: expected type for column %q at %d", cn, tt.pos)
			}
			var ty Type
			switch tt.text {
			case "INT":
				ty = TInt
			case "FLOAT":
				ty = TFloat
			case "TEXT":
				ty = TString
			case "BOOL":
				ty = TBool
			default:
				return nil, fmt.Errorf("relational: unknown type %q", tt.text)
			}
			p.advance()
			ct.Columns = append(ct.Columns, Column{Name: cn, Type: ty})
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ct, nil
	}
	ordered := p.acceptKeyword("ORDERED")
	if p.acceptKeyword("INDEX") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		tbl, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: tbl, Column: col, Ordered: ordered}, nil
	}
	return nil, fmt.Errorf("relational: expected TABLE or INDEX after CREATE at %d", p.cur().pos)
}

func (p *parser) dropStmt() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Table: name}, nil
}

func (p *parser) updateStmt() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	up := &UpdateStmt{Table: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.primary()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Column: col, Value: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) deleteStmt() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}
