package core_test

import (
	"fmt"
	"log"

	"repro/internal/algo"
	"repro/internal/colsys"
	"repro/internal/core"
)

// The paper's main theorem end to end: the Section 3 construction runs
// against greedy at k = 4 and produces two 3-regular 4-edge-coloured
// infinite trees U and V that agree on the radius-3 ball of the root, yet
// greedy matches the root of U and leaves the root of V unmatched.
func ExampleNew() {
	const k = 4
	greedy := algo.NewGreedy()
	adv, err := core.New(greedy, k, core.WithTrace(func(format string, args ...any) {
		fmt.Printf("  [adversary] "+format+"\n", args...)
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executing the Theorem 5 adversary against %q, k = %d:\n\n", greedy.Name(), k)
	res, err := adv.Run()
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(adv); err != nil {
		log.Fatal(err)
	}

	d, u, v := res.D, res.U.System(), res.V.System()
	fmt.Printf("\nU[%d] (window of S_%d): %v\n", d, d, colsys.Nodes(u, 2))
	fmt.Printf("V[%d] (window of T_%d): %v\n", d, d, colsys.Nodes(v, 2))
	fmt.Printf("\nthe two systems agree on every word of norm ≤ %d: %v\n", d, colsys.EqualUpTo(u, v, d))
	fmt.Printf("first disagreement at norm %d: %v\n", d+1, !colsys.EqualUpTo(u, v, d+1))
	fmt.Printf("\ngreedy at the root of U: %v (matched)\n", res.OutU)
	fmt.Printf("greedy at the root of V: %v (unmatched)\n", res.OutV)

	fmt.Printf("\na node running any deterministic algorithm for r rounds sees (v̄V)[r+1];\n")
	fmt.Printf("with r ≤ %d the views in U and V are identical, so the outputs would be\n", d-1)
	fmt.Printf("identical too — but a correct algorithm must answer differently.\n")
	fmt.Printf("=> every correct algorithm needs ≥ %d rounds on %d colours. greedy uses %d. ∎\n", d, k, k-1)

	// The same machinery certifies incorrect algorithms.
	fmt.Println("\nbonus: running the adversary against an always-unmatched 'algorithm':")
	badAdv, err := core.New(algo.Unmatched{}, k)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := badAdv.Run(); err != nil {
		fmt.Printf("  caught: %v\n", err)
	}
	// Output:
	// executing the Theorem 5 adversary against "greedy", k = 4:
	//
	//   [adversary] Lemma 10: c1=1 c2=2 c3=3 c4=1
	//   [adversary] base case (i): A(X, ξ, e) = 3 ≠ 2
	//   [adversary] inductive h=1→2: χ=3, y=3 (side L1)
	//   [adversary] inductive h=2→3: χ=4, y=4 (side L1)
	//   [adversary] level 3 reached: A(U,e) = 4, A(V,e) = ⊥
	//
	// U[3] (window of S_3): [e 2 3 4 2·1 2·4 3·2 3·4 4·2 4·3]
	// V[3] (window of T_3): [e 2 3 4 2·1 2·4 3·2 3·4 4·2 4·3]
	//
	// the two systems agree on every word of norm ≤ 3: true
	// first disagreement at norm 4: true
	//
	// greedy at the root of U: 4 (matched)
	// greedy at the root of V: ⊥ (unmatched)
	//
	// a node running any deterministic algorithm for r rounds sees (v̄V)[r+1];
	// with r ≤ 2 the views in U and V are identical, so the outputs would be
	// identical too — but a correct algorithm must answer differently.
	// => every correct algorithm needs ≥ 3 rounds on 4 colours. greedy uses 3. ∎
	//
	// bonus: running the adversary against an always-unmatched 'algorithm':
	//   caught: core: algorithm "unmatched" is not a maximal-matching algorithm (stage lemma10): A(Z, 1̂, e) = ⊥, contradicting Lemma 9: mm: property M3 violated at e (output ⊥): unmatched node has unmatched neighbour 2
}
