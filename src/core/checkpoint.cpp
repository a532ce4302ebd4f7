#include "core/checkpoint.hpp"

namespace repro::core {

void serialize_session(capsule::Io& io, os::System& system,
                       workload::WorkloadGenerator& generator,
                       instr::SessionController& controller) {
  system.serialize(io);
  generator.serialize(io);
  controller.serialize(io);
}

std::uint64_t session_digest(os::System& system,
                             workload::WorkloadGenerator& generator,
                             instr::SessionController& controller) {
  capsule::Io io = capsule::Io::digester();
  serialize_session(io, system, generator, controller);
  return io.digest();
}

std::vector<std::uint8_t> save_session(
    os::System& system, workload::WorkloadGenerator& generator,
    instr::SessionController& controller) {
  capsule::Io io = capsule::Io::saver();
  std::uint64_t fingerprint = system.config_fingerprint();
  io.u64(fingerprint);
  serialize_session(io, system, generator, controller);
  return capsule::seal(io.bytes());
}

void load_session(const std::vector<std::uint8_t>& sealed,
                  os::System& system,
                  workload::WorkloadGenerator& generator,
                  instr::SessionController& controller) {
  capsule::Io io = capsule::Io::loader(capsule::unseal(sealed));
  std::uint64_t fingerprint = 0;
  io.u64(fingerprint);
  if (fingerprint != system.config_fingerprint()) {
    throw capsule::CapsuleError(
        "capsule: session config fingerprint mismatch");
  }
  serialize_session(io, system, generator, controller);
  if (!io.exhausted()) {
    throw capsule::CapsuleError(
        "capsule: trailing bytes after session walk");
  }
}

void StudyCheckpoint::serialize(capsule::Io& io) {
  io.u32(samples_done);
  io.u32(samples_total);
  static const std::uint64_t kRecordBytes =
      capsule::encoded_size<instr::SampleRecord>();
  const std::uint64_t count = io.extent(records.size(), kRecordBytes);
  if (io.loading()) {
    records.assign(static_cast<std::size_t>(count), instr::SampleRecord{});
  }
  for (instr::SampleRecord& record : records) {
    record.serialize(io);
  }
}

std::vector<std::uint8_t> save_study_checkpoint(
    const StudyCheckpoint& progress, os::System& system,
    workload::WorkloadGenerator& generator,
    instr::SessionController& controller) {
  capsule::Io io = capsule::Io::saver();
  std::uint64_t fingerprint = system.config_fingerprint();
  io.u64(fingerprint);
  StudyCheckpoint copy = progress;
  copy.serialize(io);
  serialize_session(io, system, generator, controller);
  return capsule::seal(io.bytes());
}

StudyCheckpoint load_study_checkpoint(
    const std::vector<std::uint8_t>& sealed, os::System& system,
    workload::WorkloadGenerator& generator,
    instr::SessionController& controller) {
  capsule::Io io = capsule::Io::loader(capsule::unseal(sealed));
  std::uint64_t fingerprint = 0;
  io.u64(fingerprint);
  if (fingerprint != system.config_fingerprint()) {
    throw capsule::CapsuleError(
        "capsule: study checkpoint config fingerprint mismatch");
  }
  StudyCheckpoint progress;
  progress.serialize(io);
  serialize_session(io, system, generator, controller);
  if (!io.exhausted()) {
    throw capsule::CapsuleError(
        "capsule: trailing bytes after study checkpoint");
  }
  return progress;
}

}  // namespace repro::core
