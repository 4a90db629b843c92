package mining

// Association-rule mining over query logs — the extension the paper's
// conclusion points at ([17], Aligon et al.: mining preferences from
// OLAP query logs): each query is a transaction whose items are its
// structural features (or tokens), and Apriori finds frequent feature
// combinations and implication rules. Because items are opaque strings,
// the algorithms run identically on DET-encrypted items; supports and
// confidences are preserved exactly (experiment E6).

import (
	"fmt"
	"sort"
	"strings"
)

// Transaction is one itemset observation (e.g. the feature set of one
// query).
type Transaction map[string]bool

// Itemset is a sorted, deduplicated list of items.
type Itemset []string

// Key renders the canonical identity of the itemset.
func (s Itemset) Key() string { return strings.Join(s, "\x00") }

// FrequentItemset pairs an itemset with its support count.
type FrequentItemset struct {
	Items   Itemset `json:"items"`
	Support int     `json:"support"` // absolute transaction count
}

// Rule is an association rule X ⇒ Y with its quality measures.
type Rule struct {
	Antecedent Itemset
	Consequent Itemset
	Support    int     // transactions containing X ∪ Y
	Confidence float64 // support(X ∪ Y) / support(X)
	Lift       float64 // confidence / (support(Y) / N)
}

func (r Rule) String() string {
	return fmt.Sprintf("{%s} => {%s} (sup=%d conf=%.2f lift=%.2f)",
		strings.Join(r.Antecedent, ", "), strings.Join(r.Consequent, ", "),
		r.Support, r.Confidence, r.Lift)
}

// Apriori mines all itemsets with support >= minSupport (absolute
// count) up to maxLen items, in deterministic order (by size, then by
// item lexicographic order). It is the cold bootstrap of AprioriAppend,
// so an item must be non-empty and free of NUL bytes, or the call
// fails.
func Apriori(txs []Transaction, minSupport, maxLen int) ([]FrequentItemset, error) {
	out, _, _, err := AprioriAppend(txs, 0, nil, minSupport, maxLen)
	return out, err
}

// joinLevel merges itemsets sharing a (k−1)-prefix, the classic Apriori
// candidate generation. Inputs and outputs are sorted.
func joinLevel(level []Itemset) []Itemset {
	var out []Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			k := len(a)
			if !equalPrefix(a, b, k-1) {
				continue
			}
			merged := make(Itemset, 0, k+1)
			merged = append(merged, a...)
			if a[k-1] < b[k-1] {
				merged = append(merged, b[k-1])
			} else {
				merged = append(merged[:k-1], b[k-1], a[k-1])
			}
			out = append(out, merged)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func equalPrefix(a, b Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func supportOf(txs []Transaction, set Itemset) int {
	n := 0
	for _, tx := range txs {
		ok := true
		for _, item := range set {
			if !tx[item] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

// Rules derives association rules from frequent itemsets with
// confidence >= minConfidence, splitting each frequent itemset into
// every non-empty antecedent/consequent partition with a single-item
// consequent (the common log-mining setting [17]). Deterministic order.
func Rules(freq []FrequentItemset, nTransactions int, minConfidence float64) ([]Rule, error) {
	if minConfidence <= 0 || minConfidence > 1 {
		return nil, fmt.Errorf("mining: minConfidence must be in (0,1], got %v", minConfidence)
	}
	if nTransactions < 1 {
		return nil, fmt.Errorf("mining: nTransactions must be >= 1")
	}
	supports := make(map[string]int, len(freq))
	for _, f := range freq {
		supports[f.Items.Key()] = f.Support
	}
	var out []Rule
	for _, f := range freq {
		if len(f.Items) < 2 {
			continue
		}
		for i, consequent := range f.Items {
			antecedent := make(Itemset, 0, len(f.Items)-1)
			antecedent = append(antecedent, f.Items[:i]...)
			antecedent = append(antecedent, f.Items[i+1:]...)
			supA, okA := supports[antecedent.Key()]
			supC, okC := supports[Itemset{consequent}.Key()]
			if !okA || !okC || supA == 0 {
				continue // antecedent below minSupport: rule not derivable
			}
			conf := float64(f.Support) / float64(supA)
			if conf < minConfidence {
				continue
			}
			out = append(out, Rule{
				Antecedent: antecedent,
				Consequent: Itemset{consequent},
				Support:    f.Support,
				Confidence: conf,
				Lift:       conf / (float64(supC) / float64(nTransactions)),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Antecedent.Key()+"|"+out[i].Consequent.Key() <
			out[j].Antecedent.Key()+"|"+out[j].Consequent.Key()
	})
	return out, nil
}

// RuleShape is a rule with its items erased — sizes and quality numbers
// only. Two logs related by an item bijection (plaintext vs DET-encrypted
// features) have identical rule-shape multisets; experiment E6 checks
// this invariant.
type RuleShape struct {
	AntecedentLen int
	Support       int
	Confidence    float64
	Lift          float64
}

// Shapes projects rules to their shapes, sorted canonically.
func Shapes(rules []Rule) []RuleShape {
	out := make([]RuleShape, len(rules))
	for i, r := range rules {
		out[i] = RuleShape{AntecedentLen: len(r.Antecedent), Support: r.Support, Confidence: r.Confidence, Lift: r.Lift}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.AntecedentLen != b.AntecedentLen {
			return a.AntecedentLen < b.AntecedentLen
		}
		if a.Support != b.Support {
			return a.Support < b.Support
		}
		if a.Confidence != b.Confidence {
			return a.Confidence < b.Confidence
		}
		return a.Lift < b.Lift
	})
	return out
}
