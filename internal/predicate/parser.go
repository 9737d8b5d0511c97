package predicate

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the dissertation's textual predicate syntax into an AST.
//
// Supported grammar (case-insensitive keywords):
//
//	expr    := or
//	or      := and ( OR and )*
//	and     := unary ( AND unary )*
//	unary   := NOT unary | '(' expr ')' | atom
//	atom    := ident cmpop literal
//	         | ident BETWEEN literal AND literal
//	         | ident IN '(' literal ( ',' literal )* ')'
//	         | TRUE
//
// Identifiers may be table-qualified (dblp.venue, dblp_author.aid). String
// literals accept single or double quotes. Numbers parse as int when they
// have no fractional part.
func Parse(s string) (Predicate, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pred, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("predicate: trailing input at %q", p.peek().text)
	}
	return pred, nil
}

// MustParse is Parse that panics on error; for tests and literals in
// examples.
func MustParse(s string) Predicate {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

type tokKind uint8

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkOp     // = <> != < <= > >=
	tkLParen // (
	tkRParen // )
	tkComma
	tkAnd
	tkOr
	tkNot
	tkBetween
	tkIn
	tkTrue
)

type token struct {
	kind tokKind
	text string
	num  float64
	isFl bool
}

func lex(s string) ([]token, error) {
	var toks []token
	i := 0
	n := len(s)
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{kind: tkLParen, text: "("})
			i++
		case c == ')':
			toks = append(toks, token{kind: tkRParen, text: ")"})
			i++
		case c == ',':
			toks = append(toks, token{kind: tkComma, text: ","})
			i++
		case c == '=':
			toks = append(toks, token{kind: tkOp, text: "="})
			i++
		case c == '<':
			if i+1 < n && s[i+1] == '=' {
				toks = append(toks, token{kind: tkOp, text: "<="})
				i += 2
			} else if i+1 < n && s[i+1] == '>' {
				toks = append(toks, token{kind: tkOp, text: "<>"})
				i += 2
			} else {
				toks = append(toks, token{kind: tkOp, text: "<"})
				i++
			}
		case c == '>':
			if i+1 < n && s[i+1] == '=' {
				toks = append(toks, token{kind: tkOp, text: ">="})
				i += 2
			} else {
				toks = append(toks, token{kind: tkOp, text: ">"})
				i++
			}
		case c == '!':
			if i+1 < n && s[i+1] == '=' {
				toks = append(toks, token{kind: tkOp, text: "<>"})
				i += 2
			} else {
				return nil, fmt.Errorf("predicate: unexpected '!' at offset %d", i)
			}
		case c == '\'' || c == '"':
			quote := c
			j := i + 1
			var sb strings.Builder
			for j < n && s[j] != quote {
				if s[j] == '\\' && j+1 < n {
					j++
				}
				sb.WriteByte(s[j])
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("predicate: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tkString, text: sb.String()})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < n && s[i+1] >= '0' && s[i+1] <= '9':
			j := i + 1
			isFl := false
			for j < n && (s[j] >= '0' && s[j] <= '9' || s[j] == '.' || s[j] == 'e' || s[j] == 'E' ||
				(s[j] == '-' || s[j] == '+') && (s[j-1] == 'e' || s[j-1] == 'E')) {
				if s[j] == '.' || s[j] == 'e' || s[j] == 'E' {
					isFl = true
				}
				j++
			}
			f, err := strconv.ParseFloat(s[i:j], 64)
			if err != nil {
				return nil, fmt.Errorf("predicate: bad number %q: %v", s[i:j], err)
			}
			toks = append(toks, token{kind: tkNumber, text: s[i:j], num: f, isFl: isFl})
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < n && isIdentPart(rune(s[j])) {
				j++
			}
			word := s[i:j]
			switch strings.ToUpper(word) {
			case "AND":
				toks = append(toks, token{kind: tkAnd, text: word})
			case "OR":
				toks = append(toks, token{kind: tkOr, text: word})
			case "NOT":
				toks = append(toks, token{kind: tkNot, text: word})
			case "BETWEEN":
				toks = append(toks, token{kind: tkBetween, text: word})
			case "IN":
				toks = append(toks, token{kind: tkIn, text: word})
			case "TRUE":
				toks = append(toks, token{kind: tkTrue, text: word})
			default:
				toks = append(toks, token{kind: tkIdent, text: word})
			}
			i = j
		default:
			return nil, fmt.Errorf("predicate: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tkEOF})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

func (p *parser) eof() bool { return p.peek().kind == tkEOF }

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("predicate: expected %s, got %q", what, t.text)
	}
	return t, nil
}

func (p *parser) parseOr() (Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Predicate{left}
	for p.peek().kind == tkOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return NewOr(kids...), nil
}

func (p *parser) parseAnd() (Predicate, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []Predicate{left}
	for p.peek().kind == tkAnd {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	return NewAnd(kids...), nil
}

func (p *parser) parseUnary() (Predicate, error) {
	switch p.peek().kind {
	case tkNot:
		p.next()
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{Kid: kid}, nil
	case tkLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case tkTrue:
		p.next()
		return True{}, nil
	default:
		return p.parseAtom()
	}
}

func (p *parser) parseAtom() (Predicate, error) {
	id, err := p.expect(tkIdent, "attribute name")
	if err != nil {
		return nil, err
	}
	switch t := p.peek(); t.kind {
	case tkOp:
		p.next()
		val, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		op, err := opFromText(t.text)
		if err != nil {
			return nil, err
		}
		return &Cmp{Attr: id.text, Op: op, Val: val}, nil
	case tkBetween:
		p.next()
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tkAnd, "AND in BETWEEN"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return &Between{Attr: id.text, Lo: lo, Hi: hi}, nil
	case tkIn:
		p.next()
		if _, err := p.expect(tkLParen, "( after IN"); err != nil {
			return nil, err
		}
		var vals []Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.peek().kind == tkComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tkRParen, ") after IN list"); err != nil {
			return nil, err
		}
		return &In{Attr: id.text, Vals: vals}, nil
	default:
		return nil, fmt.Errorf("predicate: expected operator after %q, got %q", id.text, t.text)
	}
}

func (p *parser) parseLiteral() (Value, error) {
	t := p.next()
	switch t.kind {
	case tkNumber:
		if t.isFl {
			// -0.0 would render as "-0", which reads back as the integer
			// 0: take it as +0, so a normalized predicate is a fixpoint.
			if t.num == 0 {
				return Float(0), nil
			}
			return Float(t.num), nil
		}
		return Int(int64(t.num)), nil
	case tkString:
		return String(t.text), nil
	default:
		return Null(), fmt.Errorf("predicate: expected literal, got %q", t.text)
	}
}

func opFromText(s string) (Op, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return OpEq, fmt.Errorf("predicate: unknown operator %q", s)
	}
}

// Normalize parses and re-renders a predicate string so syntactic variants
// ("venue = 'VLDB'" vs `venue="VLDB"`) map to a single canonical node key in
// the HYPRE graph. Invalid predicates normalize to themselves.
func Normalize(s string) string {
	p, err := Parse(s)
	if err != nil {
		return strings.TrimSpace(s)
	}
	return p.String()
}
