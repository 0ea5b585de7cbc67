package relational

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp    // symbols: = != < <= > >= ( ) , * . ;
	tokParam // ? positional parameter
)

type token struct {
	kind tokKind
	text string
	pos  int
	// escaped marks string tokens whose raw text still contains '' escape
	// pairs; text is the undecoded slice of the source between the quotes.
	// Consumers that need the value call stringVal, so the common unescaped
	// case allocates nothing.
	escaped bool
}

// stringVal returns the decoded value of a string token: the raw inner text
// with ” collapsed to '. Allocation-free unless the string was escaped.
func (t token) stringVal() string {
	if !t.escaped {
		return t.text
	}
	return strings.ReplaceAll(t.text, "''", "'")
}

// keywords maps the ASCII-uppercased spelling of each reserved word to its
// canonical (interned) form, so keyword tokens never allocate: the tokenizer
// uppercases candidate words into a fixed scratch buffer and the map lookup
// with a string(buf) expression does not copy.
var keywords = map[string]string{
	"SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE", "AND": "AND", "OR": "OR",
	"NOT": "NOT", "IN": "IN", "LIKE": "LIKE", "ORDER": "ORDER", "BY": "BY",
	"ASC": "ASC", "DESC": "DESC", "LIMIT": "LIMIT", "OFFSET": "OFFSET", "GROUP": "GROUP",
	"HAVING": "HAVING", "AS": "AS", "JOIN": "JOIN", "INNER": "INNER", "LEFT": "LEFT",
	"ON": "ON", "INSERT": "INSERT", "INTO": "INTO", "VALUES": "VALUES", "CREATE": "CREATE",
	"TABLE": "TABLE", "INDEX": "INDEX", "ORDERED": "ORDERED", "UNIQUE": "UNIQUE", "DROP": "DROP",
	"UPDATE": "UPDATE", "SET": "SET", "DELETE": "DELETE", "NULL": "NULL", "TRUE": "TRUE",
	"FALSE": "FALSE", "COUNT": "COUNT", "SUM": "SUM", "AVG": "AVG", "MIN": "MIN",
	"MAX": "MAX", "DISTINCT": "DISTINCT", "INT": "INT", "FLOAT": "FLOAT", "TEXT": "TEXT",
	"BOOL": "BOOL", "BETWEEN": "BETWEEN", "IS": "IS", "EXPLAIN": "EXPLAIN",
}

// maxKeywordLen is the longest reserved word ("DISTINCT"); longer words are
// identifiers without consulting the keyword table.
const maxKeywordLen = 8

// tokenizer yields tokens from a SQL text by cursor advance, one at a time.
// Token texts are substrings of the source (or interned keyword spellings),
// so a full sweep of a statement allocates nothing — the design is borrowed
// from incremental SQL tokenizers like sqlp: parsing is always slow, and is
// amortized by caching, so the tokenizer on the cache-key path must be free.
// Unlike the original slice-building lexer, it decodes UTF-8 properly:
// multi-byte letters form identifiers and non-ASCII whitespace (NBSP etc.)
// separates tokens.
type tokenizer struct {
	src string
	pos int
	kw  [maxKeywordLen]byte
}

func newTokenizer(src string) tokenizer { return tokenizer{src: src} }

func isASCIILetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isASCIIDigit(c byte) bool { return c >= '0' && c <= '9' }

// Byte-class tables drive the scan loops: one load per input byte instead of
// a chain of range compares. The fingerprint pass sweeps every statement on
// the cache-key path, so cycles per byte here are cycles per query.
const (
	_       byte = iota // not a token byte (the table's zero value): lexical error
	clSpace             // ASCII whitespace the old lexer skipped
	clWord              // ASCII letter or '_': starts an identifier/keyword
	clDigit             // ASCII digit: starts a number
	clQuote             // '\”: starts a string
	clOp                // operator/punct: = < > ! ( ) , * . ;
	clParam             // '?': positional parameter
	clDash              // '-': line comment when doubled, else an error
	clHigh              // >= 0x80: decode the rune and classify
)

var byteClass [256]byte

// wordCont marks bytes that continue an ASCII identifier run.
var wordCont [256]bool

func init() {
	for _, c := range []byte(" \t\n\r\v\f") {
		byteClass[c] = clSpace
	}
	for c := byte('a'); c <= 'z'; c++ {
		byteClass[c] = clWord
	}
	for c := byte('A'); c <= 'Z'; c++ {
		byteClass[c] = clWord
	}
	byteClass['_'] = clWord
	for c := byte('0'); c <= '9'; c++ {
		byteClass[c] = clDigit
	}
	byteClass['\''] = clQuote
	for _, c := range []byte("=<>!(),*.;") {
		byteClass[c] = clOp
	}
	byteClass['?'] = clParam
	byteClass['-'] = clDash
	for c := 0x80; c < 0x100; c++ {
		byteClass[c] = clHigh
	}
	for c := 0; c < 0x80; c++ {
		b := byte(c)
		wordCont[c] = isASCIILetter(b) || isASCIIDigit(b) || b == '_'
	}
}

// next scans and returns the next token. After the source is exhausted it
// returns tokEOF tokens forever. On a lexical error the tokenizer does not
// advance further and every later call returns the same error.
func (tz *tokenizer) next() (token, error) {
	src := tz.src
	n := len(src)
	i := tz.pos
	for i < n {
		c := src[i]
		switch byteClass[c] {
		case clSpace:
			i++
			continue
		case clWord:
			return tz.word(i), nil
		case clDigit:
			j := i
			seenDot := false
			for j < n && (isASCIIDigit(src[j]) || (src[j] == '.' && !seenDot)) {
				if src[j] == '.' {
					seenDot = true
				}
				j++
			}
			tz.pos = j
			return token{kind: tokNumber, text: src[i:j], pos: i}, nil
		case clQuote:
			start := i
			j := i + 1
			escaped := false
			for j < n {
				if src[j] == '\'' {
					if j+1 < n && src[j+1] == '\'' { // escaped quote
						escaped = true
						j += 2
						continue
					}
					tz.pos = j + 1
					return token{kind: tokString, text: src[start+1 : j], pos: start, escaped: escaped}, nil
				}
				j++
			}
			tz.pos = start
			return token{}, fmt.Errorf("relational: unterminated string at %d", start)
		case clOp:
			if c == '.' && i+1 < n && isASCIIDigit(src[i+1]) {
				j := i + 1
				for j < n && isASCIIDigit(src[j]) {
					j++
				}
				tz.pos = j
				return token{kind: tokNumber, text: src[i:j], pos: i}, nil
			}
			// multi-char operators
			if (c == '<' || c == '>' || c == '!') && i+1 < n && src[i+1] == '=' {
				tz.pos = i + 2
				return token{kind: tokOp, text: src[i : i+2], pos: i}, nil
			}
			if c == '<' && i+1 < n && src[i+1] == '>' {
				tz.pos = i + 2
				return token{kind: tokOp, text: "!=", pos: i}, nil
			}
			tz.pos = i + 1
			return token{kind: tokOp, text: src[i : i+1], pos: i}, nil
		case clParam:
			tz.pos = i + 1
			return token{kind: tokParam, text: "?", pos: i}, nil
		case clDash:
			if i+1 < n && src[i+1] == '-' {
				// line comment
				for i < n && src[i] != '\n' {
					i++
				}
				continue
			}
			tz.pos = i
			return token{}, fmt.Errorf("relational: unexpected character %q at %d", rune(c), i)
		case clHigh:
			// Non-ASCII lead byte: decode and classify the rune.
			r, size := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && size <= 1 {
				tz.pos = i
				return token{}, fmt.Errorf("relational: unexpected character %q at %d", r, i)
			}
			if unicode.IsSpace(r) {
				i += size
				continue
			}
			if !unicode.IsLetter(r) {
				tz.pos = i
				return token{}, fmt.Errorf("relational: unexpected character %q at %d", r, i)
			}
			return tz.word(i), nil
		default:
			tz.pos = i
			return token{}, fmt.Errorf("relational: unexpected character %q at %d", rune(c), i)
		}
	}
	tz.pos = n
	return token{kind: tokEOF, pos: n}, nil
}

// word scans an identifier or keyword starting at i (the caller verified the
// first rune is a letter or underscore).
func (tz *tokenizer) word(i int) token {
	src := tz.src
	n := len(src)
	j := i
	ascii := true
	for j < n {
		c := src[j]
		if wordCont[c] {
			j++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(src[j:])
			if (r != utf8.RuneError || size > 1) && (unicode.IsLetter(r) || unicode.IsDigit(r)) {
				ascii = false
				j += size
				continue
			}
		}
		break
	}
	tz.pos = j
	text := src[i:j]
	// Keywords are pure ASCII and short; anything else is an identifier.
	if ascii && len(text) <= maxKeywordLen {
		for k := 0; k < len(text); k++ {
			c := text[k]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			tz.kw[k] = c
		}
		if canon, ok := keywords[string(tz.kw[:len(text)])]; ok {
			return token{kind: tokKeyword, text: canon, pos: i}
		}
	}
	return token{kind: tokIdent, text: text, pos: i}
}
