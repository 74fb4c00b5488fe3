package datalog

import (
	"fmt"
	"strconv"
	"unicode"

	"ccp/internal/graph"
)

// Load parses a textual program and adds its facts and rules to the engine,
// declaring any relation it has not seen yet (arity and weightedness are
// inferred from use). The syntax is a small Vadalog-style Datalog:
//
//	% the company control program
//	control(x, x) :- source(x).
//	control(x, z) :- control(x, y), own(y, z) @ w,
//	                 msum(w, <y>) > 0.5.
//	own(1, 2) @ 0.6.        % a weighted ground fact
//	source(1).              % an unweighted ground fact
//
// Identifiers starting with a letter are variables in rules; integer
// literals are constants. "@ v" binds a weighted relation's payload to v in
// bodies, or sets the payload of a ground fact. The aggregate literal
// "msum(w, <y>) > θ" may appear once, anywhere in a body.
func (e *Engine) Load(src string) error {
	p := &parser{toks: lex(src)}
	var stmts []statement
	for !p.eof() {
		st, err := p.statement()
		if err != nil {
			return err
		}
		stmts = append(stmts, st)
	}
	// Infer relation signatures before declaring anything.
	type sig struct {
		arity    int
		weighted bool
	}
	sigs := map[string]*sig{}
	note := func(a Atom, weighted bool) error {
		s, ok := sigs[a.Pred]
		if !ok {
			sigs[a.Pred] = &sig{arity: len(a.Terms), weighted: weighted}
			return nil
		}
		if s.arity != len(a.Terms) {
			return fmt.Errorf("datalog: %s used with arity %d and %d", a.Pred, s.arity, len(a.Terms))
		}
		s.weighted = s.weighted || weighted
		return nil
	}
	for _, st := range stmts {
		if err := note(st.head, st.isFact && st.hasWeight); err != nil {
			return err
		}
		for _, b := range st.body {
			if err := note(b, b.WeightVar != ""); err != nil {
				return err
			}
		}
	}
	for name, s := range sigs {
		if _, exists := e.rels[name]; exists {
			if e.rels[name].arity != s.arity {
				return fmt.Errorf("datalog: %s already declared with arity %d", name, e.rels[name].arity)
			}
			continue
		}
		if err := e.Relation(name, s.arity, s.weighted); err != nil {
			return err
		}
	}
	for _, st := range stmts {
		if st.isFact {
			tuple := make([]Value, len(st.head.Terms))
			for i, t := range st.head.Terms {
				if t.Var != "" {
					return fmt.Errorf("datalog: fact %s has variable %s", st.head.Pred, t.Var)
				}
				tuple[i] = t.Const
			}
			if err := e.AddFact(st.head.Pred, st.weight, tuple...); err != nil {
				return err
			}
			continue
		}
		if err := e.AddRule(Rule{Head: st.head, Body: st.body, Agg: st.agg}); err != nil {
			return err
		}
	}
	return nil
}

// statement is one parsed fact or rule.
type statement struct {
	head      Atom
	body      []Atom
	agg       *MSum
	isFact    bool
	hasWeight bool
	weight    float64
}

// --- lexer ---

type tokKind uint8

const (
	tokIdent tokKind = iota + 1
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokArrow // :-
	tokAt
	tokLT
	tokGT
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(src string) []token {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '%': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '.':
			// Disambiguate the statement terminator from a decimal point:
			// a '.' directly followed by a digit inside a number is handled
			// in the number case below, so any '.' seen here terminates.
			toks = append(toks, token{tokDot, ".", i})
			i++
		case c == '@':
			toks = append(toks, token{tokAt, "@", i})
			i++
		case c == '<':
			toks = append(toks, token{tokLT, "<", i})
			i++
		case c == '>':
			toks = append(toks, token{tokGT, ">", i})
			i++
		case c == ':' && i+1 < len(src) && src[i+1] == '-':
			toks = append(toks, token{tokArrow, ":-", i})
			i += 2
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' ||
				src[j] == '.' && j+1 < len(src) && src[j+1] >= '0' && src[j+1] <= '9') {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			toks = append(toks, token{kind: 0, text: string(c), pos: i})
			i++
		}
	}
	return toks
}

// --- parser ---

type parser struct {
	toks []token
	i    int
}

func (p *parser) eof() bool { return p.i >= len(p.toks) }

func (p *parser) peek() token {
	if p.eof() {
		return token{}
	}
	return p.toks[p.i]
}

func (p *parser) next() token {
	t := p.peek()
	p.i++
	return t
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("datalog: parse error at offset %d: expected %s, got %q", t.pos, what, t.text)
	}
	return t, nil
}

// statement parses "head." (fact), "head @ w." (weighted fact) or
// "head :- body."
func (p *parser) statement() (statement, error) {
	var st statement
	head, err := p.atom(false)
	if err != nil {
		return st, err
	}
	st.head = head
	t := p.next()
	switch t.kind {
	case tokDot:
		st.isFact = true
		return st, nil
	case tokAt:
		w, err := p.number()
		if err != nil {
			return st, err
		}
		st.isFact = true
		st.hasWeight = true
		st.weight = w
		_, err = p.expect(tokDot, "'.'")
		return st, err
	case tokArrow:
		for {
			if p.peek().kind == tokIdent && p.peek().text == "msum" {
				agg, err := p.msum()
				if err != nil {
					return st, err
				}
				if st.agg != nil {
					return st, fmt.Errorf("datalog: two aggregates in one rule")
				}
				st.agg = agg
			} else {
				a, err := p.atom(true)
				if err != nil {
					return st, err
				}
				st.body = append(st.body, a)
			}
			sep := p.next()
			if sep.kind == tokDot {
				return st, nil
			}
			if sep.kind != tokComma {
				return st, fmt.Errorf("datalog: parse error at offset %d: expected ',' or '.', got %q", sep.pos, sep.text)
			}
		}
	default:
		return st, fmt.Errorf("datalog: parse error at offset %d: expected '.', '@' or ':-', got %q", t.pos, t.text)
	}
}

// atom parses name(term, ...) with an optional "@ var" weight binding in
// rule bodies.
func (p *parser) atom(allowWeightVar bool) (Atom, error) {
	var a Atom
	name, err := p.expect(tokIdent, "predicate name")
	if err != nil {
		return a, err
	}
	a.Pred = name.text
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return a, err
	}
	for {
		t := p.next()
		switch t.kind {
		case tokIdent:
			a.Terms = append(a.Terms, V(t.text))
		case tokNumber:
			v, convErr := strconv.ParseInt(t.text, 10, 64)
			if convErr != nil {
				return a, fmt.Errorf("datalog: term %q is not an integer constant", t.text)
			}
			a.Terms = append(a.Terms, C(v))
		default:
			return a, fmt.Errorf("datalog: parse error at offset %d: expected term, got %q", t.pos, t.text)
		}
		sep := p.next()
		if sep.kind == tokRParen {
			break
		}
		if sep.kind != tokComma {
			return a, fmt.Errorf("datalog: parse error at offset %d: expected ',' or ')', got %q", sep.pos, sep.text)
		}
	}
	if allowWeightVar && p.peek().kind == tokAt {
		p.next()
		v, err := p.expect(tokIdent, "weight variable")
		if err != nil {
			return a, err
		}
		a.WeightVar = v.text
	}
	return a, nil
}

// msum parses "msum(w, <y>) > θ".
func (p *parser) msum() (*MSum, error) {
	p.next() // consume 'msum'
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	w, err := p.expect(tokIdent, "weight variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLT, "'<'"); err != nil {
		return nil, err
	}
	contrib, err := p.expect(tokIdent, "contributor variable")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokGT, "'>'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokGT, "'>'"); err != nil {
		return nil, err
	}
	th, err := p.number()
	if err != nil {
		return nil, err
	}
	return &MSum{WeightVar: w.text, ContribVar: contrib.text, Threshold: th}, nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tokNumber, "number")
	if err != nil {
		return 0, err
	}
	v, convErr := strconv.ParseFloat(t.text, 64)
	if convErr != nil {
		return 0, fmt.Errorf("datalog: bad number %q", t.text)
	}
	return v, nil
}

// ProgramText returns the paper's company control program in the textual
// syntax accepted by Load — the one statement of it every engine runs. Its
// msum threshold is the shared control threshold, graph.ExceedsControl's
// ControlThreshold + ControlEps.
func ProgramText() string {
	return fmt.Sprintf(`%% company control (ICDE 2021, Section III)
control(x, x) :- source(x).
control(x, z) :- control(x, y), own(y, z) @ w, msum(w, <y>) > %s.
`, strconv.FormatFloat(graph.ControlThreshold+graph.ControlEps, 'g', -1, 64))
}
