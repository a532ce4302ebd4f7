# Build file of the benchmark driver (perfbench/driver.cpp).
#
# perfbench/run.py configures the repository's own top-level
# CMakeLists.txt, unmodified, with
#
#   -DCMAKE_PROJECT_INCLUDE=<this file>
#
# so the driver links the simulator's libraries with exactly the flags,
# definitions and dependencies the repository's own build gives them,
# and keeps working when the libraries' file lists change. Only the
# driver target and what it links are built.
include_guard(GLOBAL)

add_executable(perfbench_driver EXCLUDE_FROM_ALL
  ${CMAKE_CURRENT_LIST_DIR}/driver.cpp)
# Set explicitly: this file runs right after project(), before the
# top-level list sets its language defaults.
set_target_properties(perfbench_driver PROPERTIES
  CXX_STANDARD 20
  CXX_STANDARD_REQUIRED ON
  CXX_EXTENSIONS OFF
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/perfbench)
# Resolved when the build is generated, after src/ defines the target.
target_link_libraries(perfbench_driver PRIVATE repro_artifacts)
