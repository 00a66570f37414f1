#!/usr/bin/env python3
"""Walk through the paper's core mechanism by hand.

Steps mirror Fig. 3 / Algorithms 2-3:

1. build a *valuable* packet for one Modbus packet type (a valid
   READ HOLDING REGISTERS request with a rare in-range quantity);
2. crack it against the whole pit (Alg. 2) — its InsTree is shown and
   every sub-tree becomes a puzzle in the corpus;
3. run semantic-aware generation (Alg. 3) for a *different* packet type
   (WRITE MULTIPLE REGISTERS), showing donor values crossing between
   data models — "a valuable seed with one value of the opcode can be
   used to optimize seed generation for other values of the opcode";
4. verify File Fixup re-established the MBAP length relation on every
   spliced packet.

Run:  python examples/crack_and_generate.py
"""

import random

from repro import FileCracker, PuzzleCorpus, SemanticGenerator, get_target
from repro.protocols.modbus import build_read_request


def main() -> None:
    pit = get_target("libmodbus").make_pit()

    # 1. a "valuable" seed: reads 17 registers starting at address 32
    seed = build_read_request(0x03, address=32, quantity=17)
    print(f"valuable seed ({len(seed)} bytes): {seed.hex()}")

    # 2. crack it (paper Alg. 2): PARSE under every model, DFS puzzles
    corpus = PuzzleCorpus(rng=random.Random(0))
    cracker = FileCracker(pit, corpus)
    read_model = pit.model("modbus.read_holding_registers")
    tree = read_model.parse(seed)
    print("\nInstantiation Tree (Definition 1):")
    print(tree.pretty())

    new_puzzles = cracker.crack(seed)
    print(f"\ncracked into {new_puzzles} puzzles across "
          f"{corpus.rule_count()} construction rules "
          f"({cracker.models_matched} data models parsed the seed)")

    # the quantity chunk is now a donor for *other* packet types
    write_model = pit.model("modbus.write_multiple_registers")
    quantity_rule = write_model.root.child("body").child("quantity")
    print(f"\ndonors for {quantity_rule.signature()}: "
          f"{[donor.hex() for donor in corpus.donors(quantity_rule)]}")

    # 3. semantic-aware generation (paper Alg. 3) for the write model
    generator = SemanticGenerator(corpus, random.Random(1), pin_prob=1.0,
                                  batch_limit=4)
    # construct decides the batch (donor pins + a fallback seed per
    # slot); build turns one recipe into a packet, here every one
    recipes = generator.construct(write_model)
    batch = [generator.build(write_model, recipe) for recipe in recipes]
    print(f"\nsemantic generation produced {len(batch)} spliced packets "
          "for modbus.write_multiple_registers:")
    for spliced_tree, wire in batch:
        quantity = spliced_tree.find("quantity").value
        address = spliced_tree.find("address").value
        print(f"  addr={address:<6} quantity={quantity:<6} {wire.hex()}")

    # 4. File Fixup check: relations hold on every spliced packet
    for spliced_tree, wire in batch:
        reparsed = write_model.parse(wire)
        assert reparsed.find("length").value == \
            len(reparsed.find("body").raw)
    print("\nFile Fixup verified: MBAP length relation holds on every "
          "spliced packet")


if __name__ == "__main__":
    main()
