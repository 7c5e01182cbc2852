package forecast_test

import (
	"fmt"

	"tiresias/internal/forecast"
)

// ExampleHoltWinters demonstrates fitting the additive model on two
// seasonal cycles and forecasting the next period.
func ExampleHoltWinters() {
	// A period-4 signal: 10, 20, 30, 20, repeating.
	history := []float64{10, 20, 30, 20, 10, 20, 30, 20}
	hw, err := forecast.NewHoltWinters(0.5, 0.1, 0.3, 4, history)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("next: %.0f\n", hw.Forecast())
	hw.Update(10) // the signal continues on pattern
	fmt.Printf("then: %.0f\n", hw.Forecast())
	// Output:
	// next: 10
	// then: 20
}

// ExampleHoltWinters_linearity shows Lemma 2: the model of a sum
// equals the sum of models, which is what lets ADA split and merge
// series in constant time.
func ExampleHoltWinters_linearity() {
	a := []float64{10, 20, 10, 20}
	b := []float64{5, 5, 5, 5}
	sum := []float64{15, 25, 15, 25}
	ha, _ := forecast.NewHoltWinters(0.5, 0.1, 0.3, 2, a)
	hb, _ := forecast.NewHoltWinters(0.5, 0.1, 0.3, 2, b)
	hs, _ := forecast.NewHoltWinters(0.5, 0.1, 0.3, 2, sum)

	merged := forecast.Clone(ha)
	if err := merged.Add(hb); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("merged: %.1f, direct: %.1f\n", merged.Forecast(), hs.Forecast())
	// Output:
	// merged: 15.0, direct: 15.0
}
