import csv

import pytest


@pytest.fixture
def write_tsv():
    """Writes a ``ClassificationDataset`` as the TSV that ``load_tsv_dataset`` reads."""

    def write(dataset, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter="\t")
            writer.writerow(["text_a", "text_b", "label"])
            for ex in dataset.examples:
                writer.writerow([ex.text_a, ex.text_b or "", ex.label])

    return write
