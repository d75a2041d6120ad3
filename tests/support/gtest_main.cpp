// main() for whisper_tests: gtest's flags plus --update-golden, which
// rewrites tests/golden/simulation.pin from current behaviour (see
// tests/support/sim_pin.h).
#include <gtest/gtest.h>

#include "sim_pin.h"

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  whisper::test_support::parse_golden_flag(argc, argv);
  return RUN_ALL_TESTS();
}
